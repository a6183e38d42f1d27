package client

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"wsopt/internal/core"
	"wsopt/internal/minidb"
	"wsopt/internal/wire"
)

// TestBlockCloneSurvivesLaterPulls pins the Block ownership contract:
// rows are valid until the next pull, and Clone detaches them from the
// session's reusable decode scratch so they stay correct afterwards.
func TestBlockCloneSurvivesLaterPulls(t *testing.T) {
	for _, codec := range []wire.Codec{wire.Binary{}, wire.Gzip(wire.Binary{}), wire.XML{}} {
		t.Run(codec.Name(), func(t *testing.T) {
			c, _ := testStack(t, 120, codec)
			ctx := context.Background()
			sess, err := c.OpenSession(ctx, Query{Table: "data"})
			if err != nil {
				t.Fatal(err)
			}
			first, err := sess.Next(ctx, 30)
			if err != nil {
				t.Fatal(err)
			}
			clone := first.Clone()
			if len(clone.Rows()) != 30 {
				t.Fatalf("clone has %d rows, want 30", len(clone.Rows()))
			}
			// Exhaust the session: every later pull reuses the scratch that
			// backed the first block.
			for !sess.Done() {
				if _, err := sess.Next(ctx, 30); err != nil {
					t.Fatal(err)
				}
			}
			for i, r := range clone.Rows() {
				if r[0].I != int64(i) {
					t.Fatalf("clone row %d: k = %d, want %d (clone aliased reused scratch)", i, r[0].I, i)
				}
				if want := fmt.Sprintf("v%d", i); r[1].S != want {
					t.Fatalf("clone row %d: v = %q, want %q", i, r[1].S, want)
				}
			}
			if len(clone.Schema) != 2 || clone.Schema[0].Name != "k" {
				t.Fatalf("clone schema = %v", clone.Schema)
			}
		})
	}
}

// TestStaleBlockPanics pins the other side of the contract: once the
// session has pulled again, the block's scratch is back in the pool and
// may hold another block's bytes, so Rows and Clone panic, naming the
// rule, instead of building rows from them — whether or not the rows had
// been built before the pull.
func TestStaleBlockPanics(t *testing.T) {
	for _, codec := range []wire.Codec{wire.Binary{}, wire.Gzip(wire.Binary{}), wire.XML{}} {
		t.Run(codec.Name(), func(t *testing.T) {
			c, _ := testStack(t, 120, codec)
			ctx := context.Background()
			sess, err := c.OpenSession(ctx, Query{Table: "data"})
			if err != nil {
				t.Fatal(err)
			}
			for _, readFirst := range []bool{false, true} {
				blk, err := sess.Next(ctx, 30)
				if err != nil {
					t.Fatal(err)
				}
				if readFirst && len(blk.Rows()) != 30 {
					t.Fatalf("fresh block has %d rows, want 30", len(blk.Rows()))
				}
				if _, err := sess.Next(ctx, 30); err != nil {
					t.Fatal(err)
				}
				for name, read := range map[string]func(){"Rows": func() { blk.Rows() }, "Clone": func() { blk.Clone() }} {
					func() {
						defer func() {
							if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "scratch was reused or retired") {
								t.Errorf("%s after the next pull (rows read before: %v): recovered %v, want the stale-view panic", name, readFirst, r)
							}
						}()
						read()
					}()
				}
			}
		})
	}
}

// TestRunPipelinedHandlerRowsRetainable checks the pipelined path hands
// the handler rows it may retain across blocks: the overlapping prefetch
// reuses the session scratch, so RunPipelined clones the block before
// processing it concurrently. The handler here keeps every row and
// re-validates them all at the end.
func TestRunPipelinedHandlerRowsRetainable(t *testing.T) {
	c, _ := testStack(t, 200, wire.Binary{})
	var retained []minidb.Row
	_, err := c.RunPipelined(context.Background(), Query{Table: "data"},
		core.NewStatic(23), MetricPerTuple, false,
		func(schema minidb.Schema, rows []minidb.Row) error {
			retained = append(retained, rows...)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(retained) != 200 {
		t.Fatalf("retained %d rows, want 200", len(retained))
	}
	for i, r := range retained {
		if r[0].I != int64(i) || r[1].S != fmt.Sprintf("v%d", i) {
			t.Fatalf("retained row %d corrupted by prefetch scratch reuse: %v", i, r)
		}
	}
}
