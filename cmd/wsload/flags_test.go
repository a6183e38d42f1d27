package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

// parseArgs runs the command's whole option path — flag definitions,
// parse, validation — on a private FlagSet, the way main does minus the
// exits.
func parseArgs(args ...string) (*options, error) {
	fs := flag.NewFlagSet("wsload", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseOptions(fs, args)
}

// TestOptionsValidate: every rejected flag value comes back from
// parseOptions as an error naming the flag at fault (nothing on this path
// exits the process, or panics); every valid one parses.
func TestOptionsValidate(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"valid defaults", nil, ""},
		{"valid bounded stress run", []string{"-streams=8", "-size=400", "-max-queries=2", "-codec=binary+gzip"}, ""},
		{"valid set-load", []string{"-set-load=2:1:0.5"}, ""},

		{"negative streams used to panic in make", []string{"-streams=-1"}, "-streams"},
		{"zero streams used to exit 0 having done nothing", []string{"-streams=0"}, "-streams"},
		{"zero size used to run one-tuple blocks", []string{"-size=0"}, "-size"},
		{"negative size", []string{"-size=-7"}, "-size"},
		{"zero retries", []string{"-retries=0"}, "-retries"},
		{"zero duration", []string{"-duration=0"}, "-duration"},
		{"negative max queries", []string{"-max-queries=-1"}, "-max-queries"},
		{"unknown codec", []string{"-codec=protobuf"}, "-codec"},
		{"malformed set-load", []string{"-set-load=2:1"}, "-set-load"},

		// Syntax errors are the flag package's; they name the flag too.
		{"undefined flag", []string{"-push"}, "-push"},
		{"malformed value", []string{"-streams=many"}, "-streams"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := parseArgs(tt.args...)
			switch {
			case tt.wantErr == "" && err != nil:
				t.Fatalf("parseOptions(%v) = %v, want nil", tt.args, err)
			case tt.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tt.wantErr)):
				t.Fatalf("parseOptions(%v) = %v, want error mentioning %q", tt.args, err, tt.wantErr)
			}
		})
	}
}

// TestOptionsDefaults: no flags at all is a valid load run on the
// documented defaults, -set-load resolves to the knob main sets, and -h
// is flag.ErrHelp.
func TestOptionsDefaults(t *testing.T) {
	o, err := parseArgs()
	if err != nil {
		t.Fatal(err)
	}
	if o.streams != 3 || o.size != 2000 || o.retries != 3 || o.duration != 30*time.Second || o.codec.Name() != "xml" || o.setLoad != "" {
		t.Fatalf("defaults: %+v", o)
	}
	o, err = parseArgs("-set-load=2:1:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if o.jobs != 2 || o.queries != 1 || o.memory != 0.5 {
		t.Fatalf("-set-load resolved to jobs=%d queries=%d memory=%g", o.jobs, o.queries, o.memory)
	}
	if _, err := parseArgs("-h"); err != flag.ErrHelp {
		t.Fatalf("-h = %v, want flag.ErrHelp", err)
	}
}
