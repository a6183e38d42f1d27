package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"wsopt/internal/core"
)

// parseArgs runs the command's whole option path — flag definitions,
// parse, validation — on a private FlagSet, the way main does minus the
// exits.
func parseArgs(args ...string) (*options, error) {
	fs := flag.NewFlagSet("wsquery", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseOptions(fs, args)
}

// TestOptionsValidate: every rejected flag combination comes back as an
// error naming the flag at fault; every valid one parses. The first
// table's rows are options values handed to validate — a row names the
// fields it is about, the rest take the flags' defaults — the second's
// are command lines handed to parseOptions.
func TestOptionsValidate(t *testing.T) {
	def, err := parseArgs()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name    string
		opts    options
		wantErr string
		wantCtl string // the controller validate resolves to; "" = as given
	}{
		{"pull default", options{}, "", ""},
		{"push default window", options{push: true}, "", ""},
		{"push explicit window", options{push: true, pushWindow: 8}, "", ""},
		{"negative window", options{push: true, pushWindow: -1}, "-push-window", ""},
		{"window without push", options{pushWindow: 8}, "-push-window is meaningless", ""},
		{"bad limits", options{limitsArg: "100-20000"}, "-limits", ""},
		{"streams alone select vector", options{controller: "hybrid", streams: 8}, "", "vector"},
		{"pipeline depth alone selects vector", options{controller: "hybrid", pipeDepth: 2}, "", "vector"},
		{"vector named with streams", options{controller: "vector", controllerSet: true, streams: 4, pipeDepth: 2}, "", "vector"},
		{"vector named on one stream", options{controller: "vector", controllerSet: true, streams: 1, pipeDepth: 1}, "", "vector"},
		{"scalar named on one stream", options{controller: "mimd", controllerSet: true, streams: 1, pipeDepth: 1}, "", "mimd"},
		{"scalar named with streams", options{controller: "mimd", controllerSet: true, streams: 4}, "-controller mimd", ""},
		{"scalar named with streams names both flags", options{controller: "mimd", controllerSet: true, streams: 4}, "-streams", ""},
		{"hybrid named with pipeline depth", options{controller: "hybrid", controllerSet: true, pipeDepth: 2}, "-pipeline-depth", ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fillDefaults(&tt.opts, def)
			err := tt.opts.validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				if tt.wantCtl != "" && tt.opts.controller != tt.wantCtl {
					t.Fatalf("validate() resolved the controller to %q, want %q", tt.opts.controller, tt.wantCtl)
				}
				if want := (core.Limits{Min: 100, Max: 20000}); tt.opts.limits != want {
					t.Fatalf("validate() parsed -limits to %+v, want %+v", tt.opts.limits, want)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("validate() = %v, want error mentioning %q", err, tt.wantErr)
			}
		})
	}

	lines := []struct {
		name    string
		args    []string
		wantErr string
	}{
		// What used to be accepted in silence, or checked only in main.
		{"zero size pulls one-tuple blocks", []string{"-controller=static", "-size=0"}, "-size"},
		{"negative retries", []string{"-retries=-3"}, "-retries"},
		{"zero retry base", []string{"-retry-base=0"}, "-retry-base"},
		{"negative chunk", []string{"-chunk-tuples=-5"}, "-chunk-tuples"},
		{"zero streams", []string{"-streams=0"}, "-streams"},
		{"zero pipeline depth", []string{"-pipeline-depth=0"}, "-pipeline-depth"},
		{"inverted limits", []string{"-controller=static", "-limits=500:100"}, "-limits"},
		{"zero lower limit", []string{"-limits=0:100"}, "-limits"},
		{"unknown codec", []string{"-codec=protobuf"}, "-codec"},
		{"codec compressed twice", []string{"-codec=xml+gzip+gzip"}, "-codec"},
		{"blank endpoints", []string{"-endpoints= , "}, "-endpoints"},
		{"zero breaker threshold", []string{"-breaker-threshold=0"}, "-breaker-threshold"},
		{"zero breaker cooldown", []string{"-breaker-cooldown=0"}, "-breaker-cooldown"},
		{"zero deadline multiplier", []string{"-deadline-mult=0"}, "-deadline-mult"},
		{"zero deadline floor", []string{"-deadline-min=0"}, "-deadline-min"},
		{"deadline ceiling below floor", []string{"-deadline-min=2s", "-deadline-max=1s"}, "-deadline-max"},
		{"valid command line", []string{"-endpoints=http://a:8080, http://b:8080", "-codec=binary+gzip", "-streams=4", "-push", "-push-window=8"}, ""},
		// Syntax errors are the flag package's; they name the flag too.
		{"undefined flag", []string{"-addr=:8080"}, "-addr"},
		{"malformed value", []string{"-size=big"}, "-size"},
	}
	for _, tt := range lines {
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

// fillDefaults gives every field validate bounds from below, and that
// the row left zero, the flag's default.
func fillDefaults(o *options, def *options) {
	for _, f := range []struct{ field, def *int }{
		{&o.size, &def.size}, {&o.streams, &def.streams}, {&o.pipeDepth, &def.pipeDepth},
		{&o.chunkTuples, &def.chunkTuples}, {&o.retry.MaxAttempts, &def.retry.MaxAttempts},
		{&o.breaker.FailureThreshold, &def.breaker.FailureThreshold},
	} {
		if *f.field == 0 {
			*f.field = *f.def
		}
	}
	for _, f := range []struct{ field, def *time.Duration }{
		{&o.retry.BaseDelay, &def.retry.BaseDelay}, {&o.breaker.Cooldown, &def.breaker.Cooldown},
		{&o.deadline.Min, &def.deadline.Min}, {&o.deadline.Max, &def.deadline.Max},
	} {
		if *f.field == 0 {
			*f.field = *f.def
		}
	}
	if o.deadline.Multiplier == 0 {
		o.deadline.Multiplier = def.deadline.Multiplier
	}
	if o.limitsArg == "" {
		o.limitsArg = def.limitsArg
	}
}

// TestOptionsDefaults: no flags at all is a valid query on the
// documented defaults, -h is flag.ErrHelp, and the resolved values are
// what main hands the client.
func TestOptionsDefaults(t *testing.T) {
	o, err := parseArgs()
	if err != nil {
		t.Fatal(err)
	}
	if len(o.urls) != 1 || o.urls[0] != "http://localhost:8080" || o.codec == nil || o.codec.Name() != "xml" {
		t.Fatalf("defaults: urls %v codec %v", o.urls, o.codec)
	}
	if o.controller != "hybrid" || o.size != 1000 || o.retry.MaxAttempts != 5 || o.deadline.Min != time.Second {
		t.Fatalf("defaults: controller %q size %d retries %d deadline-min %s", o.controller, o.size, o.retry.MaxAttempts, o.deadline.Min)
	}
	o, err = parseArgs("-endpoints=http://a:8080, http://b:8080,")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(o.urls, "|"); got != "http://a:8080|http://b:8080" {
		t.Fatalf("-endpoints resolved to %q", got)
	}
	if _, err := parseArgs("-h"); err != flag.ErrHelp {
		t.Fatalf("-h = %v, want flag.ErrHelp", err)
	}
}
