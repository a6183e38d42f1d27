package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"wsopt/internal/wire"
)

// parseArgs runs the daemon's whole option path — flag definitions, parse,
// validation — on a private FlagSet, the way main does minus the exits.
func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet("wsblockd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseOptions(fs, args)
}

// TestOptionsValidate: every rejected flag combination comes back from
// parseOptions as an error naming the flag at fault (nothing on this path
// exits the process); every valid one parses.
func TestOptionsValidate(t *testing.T) {
	valid := map[string]string{
		"session-ttl": "5m", "replicate": "8192", "cache-mem-bytes": "67108864",
		"push-window": "32", "push-max-frame": "4194304",
	}
	set := func(kv ...string) func(map[string]string) {
		return func(m map[string]string) {
			for i := 0; i < len(kv); i += 2 {
				if kv[i+1] == "" {
					delete(m, kv[i])
				} else {
					m[kv[i]] = kv[i+1]
				}
			}
		}
	}
	tests := []struct {
		name    string
		mutate  func(map[string]string)
		wantErr string
	}{
		{"valid full", set(), ""},
		{"valid no cache", set("cache-mem-bytes", ""), ""},
		{"valid mem-only cache", set(), ""},
		{"valid no replication", set("replicate", "0"), ""},
		{"zero session ttl", set("session-ttl", "0"), "-session-ttl"},
		{"negative session ttl", set("session-ttl", "-1s"), "-session-ttl"},
		{"negative replicate", set("replicate", "-1"), "-replicate"},
		{"negative cache mem", set("cache-mem-bytes", "-1"), "-cache-mem-bytes"},
		{"cache disk tier is gone", set("cache-dir", "/tmp/c"), "-cache-dir"},
		{"valid push defaults", set("push-window", "0", "push-max-frame", "0"), ""},
		{"push switch is gone", set("push", "false"), "-push"},
		{"negative push window", set("push-window", "-1"), "-push-window"},
		{"negative push frame cap", set("push-max-frame", "-1"), "-push-max-frame"},
		{"push frame cap above wire limit", set("push-max-frame", fmt.Sprint(wire.MaxFramePayload+1)), "wire frame limit"},

		{"unknown codec", set("codec", "yaml"), "-codec"},
		{"codec compressed twice", set("codec", "binary+gzip+gzip"), `-codec: wire: codec "binary+gzip+gzip"`},
		{"valid compressed codec", set("codec", "xml+gzip"), ""},
		{"json codec is gone", set("codec", "json+gzip"), `-codec: wire: unknown codec "json+gzip"`},
		{"unknown conf", set("conf", "conf9.9"), "-conf"},
		{"valid conf", set("conf", "conf2.2"), ""},
		{"negative timescale", set("timescale", "-1"), "-timescale"},
		{"fault probability above one", set("fault-drop", "1.5"), "-fault-drop"},
		{"negative fault probability", set("fault-503", "-0.1"), "-fault-503"},
		{"fault probabilities sum above one", set("fault-drop", "0.6", "fault-truncate", "0.6"), "-fault-truncate"},
		{"valid faults", set("fault-drop", "0.1", "fault-truncate", "0.05", "fault-503", "0.05", "fault-seed", "7"), ""},

		// The group shared with wsgate (internal/daemon validates it).
		{"negative max sessions", set("max-sessions", "-1"), "-max-sessions"},
		{"negative retry after", set("retry-after", "-1s"), "-retry-after"},
		{"negative slo", set("slo-p95-ms", "-5"), "-slo-p95-ms"},
		{"unknown regulate mode", set("slo-p95-ms", "25", "regulate-mode", "pid"), "-regulate-mode"},
		{"zero regulate interval", set("slo-p95-ms", "25", "regulate-interval", "0"), "-regulate-interval"},
		{"zero regulate floor", set("slo-p95-ms", "25", "regulate-floor", "0"), "-regulate-floor"},
		{"regulate ceiling below floor", set("slo-p95-ms", "25", "regulate-floor", "8", "regulate-ceiling", "4"), "-regulate-ceiling"},
		{"max sessions as ceiling below floor", set("slo-p95-ms", "25", "regulate-floor", "8", "max-sessions", "4"), "-regulate-floor"},
		{"regulate flags ignored without slo", set("regulate-mode", "pid", "regulate-floor", "0"), ""},
		{"valid regulation", set("slo-p95-ms", "25", "regulate-mode", "step", "max-sessions", "32"), ""},

		// Syntax errors are the flag package's; they name the flag too.
		{"undefined flag", set("bogus", "1"), "-bogus"},
		{"malformed value", set("sf", "big"), "-sf"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := map[string]string{}
			for k, v := range valid {
				m[k] = v
			}
			tt.mutate(m)
			var args []string
			for k, v := range m {
				args = append(args, "-"+k+"="+v)
			}
			_, err := parseArgs(args)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("parseOptions(%v) = %v, want nil", args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("parseOptions(%v) = %v, want error mentioning %q", args, err, tt.wantErr)
			}
		})
	}
}

// TestOptionsDefaults: no flags at all is a valid daemon, on the
// documented defaults.
func TestOptionsDefaults(t *testing.T) {
	o, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.Addr != ":8080" || o.codec.Name() != "xml" || o.SessionTTL.Minutes() != 5 || o.RegulateMode != "proportional" {
		t.Fatalf("defaults: addr %q codec %q ttl %s mode %q", o.Addr, o.codec.Name(), o.SessionTTL, o.RegulateMode)
	}
	if _, err := parseArgs([]string{"-h"}); err != flag.ErrHelp {
		t.Fatalf("-h = %v, want flag.ErrHelp", err)
	}
}
