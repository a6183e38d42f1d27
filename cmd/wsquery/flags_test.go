package main

import (
	"strings"
	"testing"

	"wsopt/internal/core"
)

func TestOptionsValidate(t *testing.T) {
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
			if tt.opts.limitsArg == "" {
				tt.opts.limitsArg = "100:20000" // the flag's default
			}
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
}
