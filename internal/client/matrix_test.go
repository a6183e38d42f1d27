package client

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"wsopt/internal/core"
	"wsopt/internal/service"
	"wsopt/internal/sysid"
	"wsopt/internal/wire"
)

// fleetStats sums the backends' Stats.
func fleetStats(servers map[string]*fleetBackend) service.Stats {
	var sum service.Stats
	for _, b := range servers {
		st := b.srv.Stats()
		sum.SessionsOpened += st.SessionsOpened
		sum.BlocksServed += st.BlocksServed
		sum.TuplesServed += st.TuplesServed
		sum.BlocksReplayed += st.BlocksReplayed
		sum.PushFramesSent += st.PushFramesSent
	}
	return sum
}

// pinnedVector is a vector controller whose stream and depth knobs are
// fixed, so a cell runs at exactly the fan-out and prefetch it names.
func pinnedVector(t *testing.T, streams, depth int) *core.VectorController {
	t.Helper()
	cfg := vectorTestConfig()
	cfg.Dims[core.DimStreams].Initial = streams
	cfg.Dims[core.DimStreams].Limits = core.Limits{Min: streams, Max: streams}
	cfg.Dims[core.DimDepth].Initial = depth
	cfg.Dims[core.DimDepth].Limits = core.Limits{Min: depth, Max: depth}
	ctl, err := core.NewVector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

// TestTransferMatrix closes the transport × topology × mode matrix: every
// run mode is the same engine, so every cell must deliver the relation
// exactly once, emit one event per accounted block and reconcile with the
// servers' own counters — over pull and push, direct and via the gateway.
func TestTransferMatrix(t *testing.T) {
	const rows = 1300
	type runFn func(ctx context.Context, c *Client, handle BlockHandler) (*RunResult, error)
	// vectorWith runs mk's controller on the parallel-stream runner, which
	// must fan out to exactly the streams the controller commands — never
	// to the cap, which is 3 whatever the cell.
	vectorWith := func(streams int, mk func() core.Controller) runFn {
		return func(ctx context.Context, c *Client, handle BlockHandler) (*RunResult, error) {
			res, err := c.RunVector(ctx, Query{Table: "items"}, mk(),
				VectorRunConfig{ChunkTuples: 300, MaxStreams: 3, Handle: handle})
			if res == nil {
				return nil, err
			}
			if err == nil && res.PeakStreams != streams {
				t.Errorf("peak streams = %d, want %d", res.PeakStreams, streams)
			}
			if err == nil && res.Final.Streams != streams {
				t.Errorf("final vector %v, want %d streams", res.Final, streams)
			}
			return &res.RunResult, err
		}
	}
	vector := func(streams, depth int) runFn {
		return vectorWith(streams, func() core.Controller { return pinnedVector(t, streams, depth) })
	}
	hybrid := func() core.Controller {
		cfg := core.DefaultConfig()
		cfg.InitialSize, cfg.Limits, cfg.B1, cfg.AvgHorizon = 50, core.Limits{Min: 10, Max: 200}, 20, 1
		h, err := core.NewHybrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	modes := []struct {
		name string
		// keyed is false for Run, which has no handler to see rows with.
		keyed bool
		// phased: something on the controller's chain has phases, so every
		// event must name one.
		phased bool
		// holds: the controller promises its size, so the gateway reads
		// its blocks ahead (core.HoldsSize); no other cell is read ahead for.
		holds bool
		run   runFn
	}{
		{"run", false, false, true, func(ctx context.Context, c *Client, _ BlockHandler) (*RunResult, error) {
			return c.Run(ctx, Query{Table: "items"}, core.NewStatic(70), MetricPerTuple, false)
		}},
		{"pipelined", true, false, true, func(ctx context.Context, c *Client, handle BlockHandler) (*RunResult, error) {
			res, err := c.RunPipelined(ctx, Query{Table: "items"}, core.NewStatic(70), MetricPerTuple, false, handle)
			if res == nil {
				return nil, err
			}
			return &res.RunResult, err
		}},
		{"vector/depth=1/streams=1", true, true, false, vector(1, 1)},
		{"vector/depth=1/streams=3", true, true, false, vector(3, 1)},
		{"vector/depth=3/streams=1", true, true, false, vector(1, 3)},
		{"vector/depth=3/streams=3", true, true, false, vector(3, 3)},
		// Every controller runs on this runner, at the operating point
		// core.VectorOf reads off it: a scalar one as one stream at depth
		// 1, a wrapper at what the controller it drives commands.
		{"vector/ctl=hybrid", true, true, false, vectorWith(1, hybrid)},
		{"vector/ctl=supervisor(vector,hybrid)", true, true, false, vectorWith(3, func() core.Controller {
			s, err := core.NewSupervisor([]core.Controller{pinnedVector(t, 3, 3), hybrid()}, core.SupervisorConfig{DegradeFactor: 1e9})
			if err != nil {
				t.Fatal(err)
			}
			return s
		})},
		{"vector/ctl=vector-cold-start", true, true, false, vectorWith(3, func() core.Controller {
			cold, err := sysid.NewVectorColdStart(pinnedVector(t, 3, 3), core.Limits{Min: 10, Max: 200}, 0)
			if err != nil {
				t.Fatal(err)
			}
			return cold
		})},
	}

	for _, push := range []bool{false, true} {
		for _, viaGateway := range []bool{false, true} {
			for _, mode := range modes {
				transport, topology := "pull", "direct"
				if push {
					transport = "push"
				}
				if viaGateway {
					topology = "gateway"
				}
				t.Run(transport+"/"+topology+"/"+mode.name, func(t *testing.T) {
					gw, gwURL, servers := startGatewayFleet(t, 2, rows)
					var backends []string
					for u := range servers {
						backends = append(backends, u)
					}
					target := backends[0]
					if viaGateway {
						target = gwURL
					}
					c, err := New(target, wire.XML{}, nil)
					if err != nil {
						t.Fatal(err)
					}
					c.SetPush(PushConfig{Enabled: push})
					var trace bytes.Buffer
					ew := NewEventWriter(&trace)
					c.SetEvents(ew)
					handle, keys := collectKeys(t)

					res, err := mode.run(context.Background(), c, handle)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					if res.Tuples != rows {
						t.Errorf("delivered %d tuples, want %d", res.Tuples, rows)
					}
					if res.Blocks == 0 || len(res.Sizes) != res.Blocks {
						t.Errorf("%d blocks with %d recorded sizes", res.Blocks, len(res.Sizes))
					}
					if mode.keyed {
						seen := keys()
						for k := int64(0); k < rows; k++ {
							if seen[k] != 1 {
								t.Fatalf("key %d delivered %d times, want exactly once", k, seen[k])
							}
						}
					}

					// One event per accounted block, attributable to its session.
					if err := ew.Flush(); err != nil {
						t.Fatal(err)
					}
					events, err := ReadEvents(&trace)
					if err != nil {
						t.Fatal(err)
					}
					if len(events) != res.Blocks {
						t.Errorf("%d events for %d accounted blocks", len(events), res.Blocks)
					}
					evTuples := 0
					blocks := map[string]bool{}
					for _, ev := range events {
						evTuples += ev.Tuples
						id := fmt.Sprintf("%s#%d", ev.Session, ev.Seq)
						if ev.Session == "" || ev.Seq == 0 || blocks[id] {
							t.Errorf("event not attributable to one block of one session: %+v", ev)
						}
						if mode.phased != (ev.Phase != "") {
							t.Errorf("event phase %q from a controller chain with phases = %v: %+v", ev.Phase, mode.phased, ev)
						}
						blocks[id] = true
					}
					if evTuples != res.Tuples {
						t.Errorf("events account for %d tuples, result for %d", evTuples, res.Tuples)
					}

					// The servers saw the same transfer: every tuple served once,
					// and no block beyond the accounted ones except each
					// session's empty done marker.
					st := fleetStats(servers)
					if st.TuplesServed != int64(res.Tuples) || st.BlocksReplayed != 0 {
						t.Errorf("servers served %d tuples (%d replays), client accounted %d", st.TuplesServed, st.BlocksReplayed, res.Tuples)
					}
					if extra := st.BlocksServed - int64(res.Blocks); extra < 0 || extra > st.SessionsOpened {
						t.Errorf("servers served %d blocks over %d sessions, client accounted %d", st.BlocksServed, st.SessionsOpened, res.Blocks)
					}
					switch {
					case push && !viaGateway && st.PushFramesSent == 0:
						t.Error("push enabled against a backend, yet no push frame was sent")
					case push && viaGateway && st.PushFramesSent != 0:
						// bind: a transparent gateway does not proxy the stream
						// endpoints, so push falls back to pull behind it.
						t.Errorf("%d push frames behind the gateway; the documented pull fallback is gone — update bind's contract and this cell", st.PushFramesSent)
					case !push && st.PushFramesSent != 0:
						t.Errorf("%d push frames on a pull run", st.PushFramesSent)
					}

					// Every block reference is given back once the run's
					// sessions are deleted (behind Run: Wait) and the logs the
					// backends ship to the gateway are closed.
					if err := c.Wait(context.Background()); err != nil {
						t.Fatal(err)
					}
					daemons := []interface{ RetainedBlocks() int64 }{gw}
					for _, b := range servers {
						b.log.Close()
						daemons = append(daemons, b.srv)
					}
					assertNoRetainedBlocks(t, daemons...)
					if !viaGateway {
						return
					}
					// The gateway read ahead exactly for the controllers that
					// promise their size, and none of them broke the promise.
					gst := gw.Stats()
					if mode.holds && (gst.ReadAheadHits == 0 || gst.ReadAheadMisses != 0) {
						t.Errorf("a static controller behind the gateway: %d read-ahead hits, %d misses; want some and 0", gst.ReadAheadHits, gst.ReadAheadMisses)
					}
					if !mode.holds && gst.ReadAheadHits+gst.ReadAheadMisses != 0 {
						t.Errorf("a controller that changes its size was read ahead for: %d hits, %d misses", gst.ReadAheadHits, gst.ReadAheadMisses)
					}
				})
			}
		}
	}
}
