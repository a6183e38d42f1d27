package client

import (
	"context"
	"regexp"
	"strings"
	"testing"

	"wsopt/internal/minidb"
)

// logController records when the engine asks for a size (S) and when it
// observes a block (O). Not safe for concurrent use, like every scalar
// controller — so the race detector also checks that the engine only
// ever touches it from one goroutine at a time.
type logController struct{ log *strings.Builder }

func (c logController) Size() int       { c.log.WriteByte('S'); return 40 }
func (c logController) Observe(float64) { c.log.WriteByte('O') }
func (c logController) Name() string    { return "log" }

// TestEngineDecisionOrder pins the engine's control-lag contract for each
// prefetch depth: lock-step decides a size right before every pull;
// ahead = d issues d sizes up front and then exactly one per hand-off,
// after that block's observation and before its handler runs — so a size
// is always d observations stale, never more, never less.
func TestEngineDecisionOrder(t *testing.T) {
	for _, tc := range []struct {
		ahead int
		want  string
	}{
		// The trailing S? is the pull that fetches the empty done marker.
		{0, `^(SOH){5}S?$`},
		{1, `^S(OSH){5}$`},
		{3, `^SSS(OSH){5}$`},
	} {
		c := pipelineStack(t, 200, 0)
		sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
		if err != nil {
			t.Fatal(err)
		}
		var log strings.Builder
		r := run{c: c, ctl: logController{&log}, res: &RunResult{}}
		got, err := r.transfer(context.Background(), sess, tc.ahead,
			func(minidb.Schema, []minidb.Row) error { log.WriteByte('H'); return nil })
		if err != nil || got != 200 || r.res.Blocks != 5 {
			t.Fatalf("ahead=%d: transferred %d tuples in %d blocks, err %v", tc.ahead, got, r.res.Blocks, err)
		}
		if !regexp.MustCompile(tc.want).MatchString(log.String()) {
			t.Errorf("ahead=%d: size/observe/handle order %q, want %s", tc.ahead, log.String(), tc.want)
		}
	}
}
