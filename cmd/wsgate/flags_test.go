package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// parseArgs runs the daemon's whole option path — flag definitions, parse,
// validation — on a private FlagSet, the way main does minus the exits.
func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet("wsgate", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseOptions(fs, args)
}

// TestOptionsValidate: every rejected flag combination comes back from
// parseOptions as an error naming the flag at fault (nothing on this path
// exits the process); every valid one parses.
func TestOptionsValidate(t *testing.T) {
	const backends = "-backends=http://h1:8080, http://h2:8080/"
	tests := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"valid defaults", []string{backends}, ""},
		{"zero session ttl", []string{backends, "-session-ttl=0"}, "-session-ttl"},
		{"negative session ttl", []string{backends, "-session-ttl=-1m"}, "-session-ttl"},
		{"zero pull interval", []string{backends, "-pull-interval=0"}, "-pull-interval"},
		{"negative pull interval", []string{backends, "-pull-interval=-1ms"}, "-pull-interval"},

		{"no backends", nil, "-backends"},
		{"blank backends", []string{"-backends= , "}, "-backends"},
		{"zero breaker failures", []string{backends, "-breaker-failures=0"}, "-breaker-failures"},
		{"zero breaker cooldown", []string{backends, "-breaker-cooldown=0"}, "-breaker-cooldown"},

		// The group shared with wsblockd (internal/daemon validates it).
		{"negative max sessions", []string{backends, "-max-sessions=-1"}, "-max-sessions"},
		{"negative retry after", []string{backends, "-retry-after=-1s"}, "-retry-after"},
		{"negative slo", []string{backends, "-slo-p95-ms=-5"}, "-slo-p95-ms"},
		{"unknown regulate mode", []string{backends, "-slo-p95-ms=25", "-regulate-mode=pid"}, "-regulate-mode"},
		{"zero regulate interval", []string{backends, "-slo-p95-ms=25", "-regulate-interval=0"}, "-regulate-interval"},
		{"zero regulate floor", []string{backends, "-slo-p95-ms=25", "-regulate-floor=0"}, "-regulate-floor"},
		{"regulate ceiling below floor", []string{backends, "-slo-p95-ms=25", "-regulate-floor=8", "-regulate-ceiling=4"}, "-regulate-ceiling"},
		{"valid regulation", []string{backends, "-slo-p95-ms=25", "-max-sessions=32", "-regulate-mode=step"}, ""},

		// Syntax errors are the flag package's; they name the flag too.
		{"undefined flag", []string{backends, "-push"}, "-push"},
		{"hash ring is gone", []string{backends, "-vnodes", "8"}, "-vnodes"},
		{"malformed value", []string{backends, "-pull-interval=soon"}, "-pull-interval"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := parseArgs(tt.args)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("parseOptions(%v) = %v, want nil", tt.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("parseOptions(%v) = %v, want error mentioning %q", tt.args, err, tt.wantErr)
			}
		})
	}
}

// TestOptionsDefaults: -backends alone is a valid gateway, on the
// documented defaults, with the URLs trimmed.
func TestOptionsDefaults(t *testing.T) {
	o, err := parseArgs([]string{"-backends=http://h1:8080, http://h2:8080/"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(o.backends, "|"); got != "http://h1:8080|http://h2:8080" {
		t.Fatalf("backends = %q", got)
	}
	if o.Addr != ":8079" || o.breaker.FailureThreshold != 5 || o.SessionTTL.Minutes() != 5 {
		t.Fatalf("defaults: addr %q breaker %d ttl %s", o.Addr, o.breaker.FailureThreshold, o.SessionTTL)
	}
	if _, err := parseArgs([]string{"-h"}); err != flag.ErrHelp {
		t.Fatalf("-h = %v, want flag.ErrHelp", err)
	}
}
