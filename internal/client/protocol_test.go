package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wsopt/internal/resilience"
	"wsopt/internal/wire"
)

// faultTransport fails the next n block operations — a /next or /stream
// round trip, or a read off an open stream's body — the way a reset
// connection would, so a test decides which attempt of which block fails
// on either transport.
type faultTransport struct {
	inner http.RoundTripper
	left  atomic.Int32
}

func (f *faultTransport) take() bool {
	for {
		n := f.left.Load()
		if n <= 0 {
			return false
		}
		if f.left.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

func (f *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	stream := strings.HasSuffix(req.URL.Path, "/stream")
	if (stream || strings.HasSuffix(req.URL.Path, "/next")) && f.take() {
		return nil, errors.New("injected fault: connection reset")
	}
	resp, err := f.inner.RoundTrip(req)
	if err == nil && stream {
		resp.Body = &faultBody{ReadCloser: resp.Body, f: f}
	}
	return resp, err
}

type faultBody struct {
	io.ReadCloser
	f *faultTransport
}

func (b *faultBody) Read(p []byte) (int, error) {
	if b.f.take() {
		return 0, errors.New("injected fault: stream severed")
	}
	return b.ReadCloser.Read(p)
}

// TestCommitIsTheOnlyCursorWriter walks one script — a fresh block, a
// retried one, one that fails the session over, then blocks carrying a
// gateway's failover count — over both transports. commit is the one
// writer of the cursor under both, so after every step seq, committed,
// done, the block's Attempts/Failovers and the disturbances raised so far
// must be the script's, whichever transport ran it.
func TestCommitIsTheOnlyCursorWriter(t *testing.T) {
	type state struct {
		seq                 uint64
		committed           int
		done                bool
		attempts, failovers int
		disturbances        int
	}
	const rows, size = 1000, 100
	for _, push := range []bool{false, true} {
		name := "pull"
		if push {
			name = "push"
		}
		t.Run(name, func(t *testing.T) {
			_, urlA := replica(t, rows)
			_, urlB := replica(t, rows)
			faults := &faultTransport{inner: http.DefaultTransport}
			c, err := NewMulti([]string{urlA, urlB}, wire.XML{}, &http.Client{Transport: faults})
			if err != nil {
				t.Fatal(err)
			}
			c.SetRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
			if err := c.SetResilience(ResilienceConfig{
				Breaker: resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour},
			}); err != nil {
				t.Fatal(err)
			}
			c.SetPush(PushConfig{Enabled: push})
			ctx := context.Background()
			sess, err := c.OpenSession(ctx, Query{Table: "data"})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close(ctx)
			if streams := sess.way == streaming; streams != push {
				t.Fatalf("session way is %d with push = %v", sess.way, push)
			}
			disturbances := 0
			sess.OnDisturbance = func(string) { disturbances++ }

			next := func(faultsArmed int32) func() *Block {
				return func() *Block {
					faults.left.Store(faultsArmed)
					blk, err := sess.Next(ctx, size)
					if err != nil {
						t.Fatalf("next: %v", err)
					}
					return blk
				}
			}
			// Frames have no encoding for the gateway's fields (wsgate does
			// not proxy streams), so on both transports a gateway's count
			// reaches commit by hand.
			behindGateway := func(blk *Block) func() *Block {
				return func() *Block {
					sess.transparent = true
					sess.commit(blk, 1, 0)
					return blk
				}
			}
			for _, step := range []struct {
				name string
				do   func() *Block
				want state
			}{
				{"fresh", next(0), state{1, 100, false, 1, 0, 0}},
				{"retried", next(1), state{2, 200, false, 2, 0, 0}},
				// Two failures open A's breaker (threshold 2): the session
				// re-opens on B, whose blocks number from 1.
				{"failed over", next(2), state{1, 300, false, 3, 1, 1}},
				{"fresh on the new session", next(0), state{2, 400, false, 1, 0, 1}},
				{"gateway failover delta", behindGateway(&Block{Tuples: 7, GatewayFailovers: 2}), state{3, 407, false, 1, 0, 2}},
				{"same gateway count again", behindGateway(&Block{Tuples: 7, GatewayFailovers: 2}), state{4, 414, false, 1, 0, 2}},
				{"done", behindGateway(&Block{Done: true, GatewayFailovers: 3}), state{5, 414, true, 1, 0, 3}},
			} {
				blk := step.do()
				got := state{sess.seq, sess.committed, sess.done, blk.Attempts, blk.Failovers, disturbances}
				if got != step.want {
					t.Fatalf("after %q: %+v, want %+v", step.name, got, step.want)
				}
				if sess.Done() != step.want.done {
					t.Fatalf("after %q: session done = %v", step.name, sess.Done())
				}
			}
			if sess.Failovers() != 1 || sess.Endpoint() != urlB || sess.GatewayFailovers() != 3 {
				t.Fatalf("session ended with %d failovers on %s, %d gateway failovers", sess.Failovers(), sess.Endpoint(), sess.GatewayFailovers())
			}
		})
	}
}

// TestPushBindDecidesTheWay walks every input of bind, the one writer of
// a session's way — push off or on, an endpoint that has declined a
// stream before (pullOnly) or not, and the session opened as a name the
// client picked, by POST /sessions, by a POST a transparent gateway
// answered, or by a stream open that created it — and checks the way
// each pair gives. A name is never pulled while push is on; that was the
// state product of a per-session flag and the client-wide pullOnly that
// no test named.
func TestPushBindDecidesTheWay(t *testing.T) {
	c, err := New("http://bind.invalid", wire.Binary{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep := c.pool.Pick()
	names := [...]string{pulling: "pulling", pending: "pending", streaming: "streaming"}
	arms := []struct{ push, pullOnly bool }{{false, false}, {false, true}, {true, false}, {true, true}}
	for _, tc := range []struct {
		opened string
		o      opened
		want   [4]way // per arm, in arms' order
	}{
		{"a name", opened{id: "c1", url: "http://bind.invalid/sessions/c1", pending: true}, [4]way{pulling, pulling, pending, pending}},
		{"POST /sessions", opened{id: "s1", url: "http://bind.invalid/sessions/s1"}, [4]way{pulling, pulling, streaming, pulling}},
		{"POST via a gateway", opened{id: "g1", url: "http://bind.invalid/sessions/g1", transparent: true}, [4]way{pulling, pulling, pulling, pulling}},
		{"a creating stream open", opened{id: "c2", url: "http://bind.invalid/sessions/c2", streamed: true}, [4]way{pulling, pulling, streaming, streaming}},
	} {
		for i, arm := range arms {
			c.SetPush(PushConfig{Enabled: arm.push})
			if arm.pullOnly {
				c.pullOnly.Store(ep, true)
			} else {
				c.pullOnly.Delete(ep)
			}
			s := &Session{c: c}
			s.bind(ep, tc.o)
			if s.way != tc.want[i] {
				t.Errorf("%s with push %v, endpoint pull-only %v: %s, want %s", tc.opened, arm.push, arm.pullOnly, names[s.way], names[tc.want[i]])
			}
		}
	}
}
