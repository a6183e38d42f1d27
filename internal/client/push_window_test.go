package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wsopt/internal/core"
	"wsopt/internal/minidb"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// delayRelay is a TCP relay that holds every chunk for oneWay in each
// direction — the one physical latency of these tests, as bench/'s delay
// proxy is of push-rtt. A burst is delayed as a whole: a reader stamps
// chunks as they arrive and the writer releases each when it is due.
func delayRelay(tb testing.TB, target string, oneWay time.Duration) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	type chunk struct {
		data []byte
		due  time.Time
	}
	relay := func(dst, src net.Conn) {
		// Room for a whole delay's worth of reads, or the relay would
		// throttle bandwidth as well as add latency.
		q := make(chan chunk, 256)
		go func() {
			defer close(q)
			for {
				buf := make([]byte, 32<<10)
				n, err := src.Read(buf)
				if n > 0 {
					q <- chunk{buf[:n], time.Now().Add(oneWay)}
				}
				if err != nil {
					return
				}
			}
		}()
		for c := range q {
			time.Sleep(time.Until(c.due))
			if _, err := dst.Write(c.data); err != nil {
				break
			}
		}
		dst.Close()
		src.Close()
		for range q {
		}
	}
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			go relay(up, down)
			go relay(down, up)
		}
	}()
	tb.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// dataServer starts a service over cfg.Catalog, or dataCatalog's table
// when cfg has none, under cfg but for its codec.
func dataServer(tb testing.TB, rows int, cfg service.Config) (*service.Server, *httptest.Server) {
	tb.Helper()
	if cfg.Catalog == nil {
		cfg.Catalog = dataCatalog(tb, rows)
	}
	cfg.Codec = wire.Binary{}
	srv, err := service.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(ts.Close)
	return srv, ts
}

// wideCatalog is dataCatalog's table with every v padded to width bytes:
// frames of a megabyte without a million rows.
func wideCatalog(tb testing.TB, rows, width int) *minidb.Catalog {
	tb.Helper()
	cat := dataCatalog(tb, 0)
	tbl, err := cat.Table("data")
	if err != nil {
		tb.Fatal(err)
	}
	batch := make([]minidb.Row, 0, rows)
	for i := 0; i < rows; i++ {
		v := fmt.Sprintf("v%d", i)
		batch = append(batch, minidb.Row{minidb.NewInt(int64(i)), minidb.NewString(v + strings.Repeat(".", width-len(v)))})
	}
	if err := tbl.BulkLoad(batch); err != nil {
		tb.Fatal(err)
	}
	return cat
}

// delayStack is a service over cat with a free handler behind a relay of
// 5 ms each way, and a push client whose window is pinned (0 = the
// server's cap).
func delayStack(tb testing.TB, cat *minidb.Catalog, pinned int) (*Client, *service.Server) {
	tb.Helper()
	srv, ts := dataServer(tb, 0, service.Config{Catalog: cat})
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	tb.Cleanup(hc.CloseIdleConnections)
	c, err := New("http://"+delayRelay(tb, ts.Listener.Addr().String(), 5*time.Millisecond), wire.Binary{}, hc)
	if err != nil {
		tb.Fatal(err)
	}
	c.SetPush(PushConfig{Enabled: true, Window: pinned})
	return c, srv
}

// TestPushDefaultWindowCoversDelay: over a link with a real 10 ms round
// trip a client that pins nothing is granted the server's cap, which
// covers the delay — the producer is rarely held for credit — where the
// window of 4 that used to be the default is stop-and-wait: a stall and a
// round trip every four frames.
func TestPushDefaultWindowCoversDelay(t *testing.T) {
	const rows, size = 10000, 50
	stallsPerFrame := func(pinned int) float64 {
		t.Helper()
		c, srv := delayStack(t, dataCatalog(t, rows), pinned)
		res, err := c.Run(context.Background(), Query{Table: "data"}, core.NewStatic(size), MetricPerBlock, false)
		if err != nil || res.Tuples != rows || res.Retries != 0 {
			t.Fatalf("push run: %+v, %v", res, err)
		}
		st := srv.Stats()
		t.Logf("window %d: %d credit stalls over %d frames", pinned, st.PushCreditStalls, st.PushFramesSent)
		return float64(st.PushCreditStalls) / float64(st.PushFramesSent)
	}
	if got := stallsPerFrame(0); got >= 0.1 {
		t.Errorf("default window: %.2f credit stalls per frame over a 10 ms round trip, want under 0.1", got)
	}
	if got := stallsPerFrame(4); got < 0.15 {
		t.Errorf("window 4: %.2f credit stalls per frame; the relay adds no delay worth a window, so the case above proved nothing", got)
	}
}

// windowsAsked is an http.RoundTripper that records the window of every
// stream open and credit grant a client sends.
type windowsAsked struct {
	mu   sync.Mutex
	seen []int
}

func (w *windowsAsked) RoundTrip(req *http.Request) (*http.Response, error) {
	if v := req.URL.Query().Get("window"); v != "" {
		n, _ := strconv.Atoi(v)
		w.mu.Lock()
		w.seen = append(w.seen, n)
		w.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(req)
}

func (w *windowsAsked) all() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]int(nil), w.seen...)
}

// TestPushWindowAboveServerCapStillFlows: a client configured for a
// window the server does not grant used to ack at half of it — a
// threshold the server's smaller window never let it reach, so every
// window's worth of frames waited for the watchdog and a reconnect (two
// minutes and a failure for this query). The open's 200 announces the
// cap, and both what the client asks for and what it acks against are
// bounded by it; a client that pins nothing asks for the cap itself.
func TestPushWindowAboveServerCapStillFlows(t *testing.T) {
	const rows = 2000
	for _, tc := range []struct {
		name           string
		pinned, cap    int
		size           int // blocks of this many of the 2000 rows
		first, settled int // the window the open asks for, and every grant after it
		clamped        int64
	}{
		{"pinned above the cap", 16, 2, 50, 16, 2, 1},
		{"pinned under the cap", 3, 0, 50, 3, 3, 0},
		{"default, smaller cap", 0, 2, 50, service.DefaultPushMaxWindow, 2, 1},
		{"default, larger cap", 0, 2 * service.DefaultPushMaxWindow, 1, service.DefaultPushMaxWindow, 2 * service.DefaultPushMaxWindow, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := dataServer(t, rows, service.Config{PushMaxWindow: tc.cap})
			asked := new(windowsAsked)
			c, err := New(ts.URL, wire.Binary{}, &http.Client{Transport: asked})
			if err != nil {
				t.Fatal(err)
			}
			c.SetRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})
			c.SetPush(PushConfig{Enabled: true, Window: tc.pinned})

			start := time.Now()
			res, err := c.Run(context.Background(), Query{Table: "data"}, core.NewStatic(tc.size), MetricPerBlock, false)
			if err != nil || res.Tuples != rows || res.Retries != 0 {
				t.Fatalf("push run: %+v, %v", res, err)
			}
			if took := time.Since(start); took > time.Second {
				t.Errorf("the query took %v: the stream waited for credit it never asked for", took)
			}
			st := srv.Stats()
			if st.PushStreamsOpened != 1 || st.PushFramesReplayed != 0 || st.PushWindowClamped != tc.clamped {
				t.Errorf("%d streams opened, %d frames replayed, %d opens clamped; want 1, 0, %d", st.PushStreamsOpened, st.PushFramesReplayed, st.PushWindowClamped, tc.clamped)
			}
			// The open asks before it knows the cap; every grant after it does.
			windows := asked.all()
			if len(windows) < 2 || windows[0] != tc.first {
				t.Fatalf("windows asked for: %v, want %d first and grants after it", windows, tc.first)
			}
			for _, w := range windows[1:] {
				if w != tc.settled {
					t.Fatalf("windows asked for: %v, want %d on every grant after the open", windows, tc.settled)
				}
			}
		})
	}
}

// TestPushWindowBytesStillFlows is the same wedge in bytes: frames of
// about a third of the stream's byte budget fill it in two or three, far
// below the frame count that acks (maxAckBatch), so a client that acked
// by frames alone would leave the producer parked until the watchdog and
// a reconnect. The open's 200 announces the budget, and the client acks
// once half of it is pending. The consumer holds its first block until
// the producer has stalled on the budget: the prefetcher pulls one more
// block meanwhile and then waits, so no further grant is queued and the
// stall is certain, not left to the scheduler.
func TestPushWindowBytesStillFlows(t *testing.T) {
	// Frames of 18.8 kB against a budget of twice 28 KiB.
	const rows, size = 20000, 2000
	srv, ts := dataServer(t, rows, service.Config{PushMaxFrameBytes: 28 << 10})
	c, err := New(ts.URL, wire.Binary{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	c.SetPush(PushConfig{Enabled: true})
	start := time.Now()
	first := true
	awaitStall := func(minidb.Schema, []minidb.Row) error {
		for ; first && srv.Stats().PushCreditStalls == 0; time.Sleep(time.Millisecond) {
			if time.Since(start) > time.Second {
				return errors.New("the producer never stalled on the byte budget")
			}
		}
		first = false
		return nil
	}
	res, err := c.RunPipelined(context.Background(), Query{Table: "data"}, core.NewStatic(size), MetricPerBlock, false, awaitStall)
	if err != nil || res.Tuples != rows || res.Retries != 0 {
		t.Fatalf("push run: %+v, %v", res, err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("the query took %v: the stream waited for an ack the client held", took)
	}
	st := srv.Stats()
	if st.PushStreamsOpened != 1 || st.PushFramesReplayed != 0 || st.PushCreditStalls == 0 {
		t.Errorf("%d streams opened, %d frames replayed, %d credit stalls; want 1, 0 and the budget reached", st.PushStreamsOpened, st.PushFramesReplayed, st.PushCreditStalls)
	}
}

// TestPushShortQueryStillAcks: a query of fewer blocks than half the
// window is acknowledged all the same — the ack batch is bounded by
// maxAckBatch, not only by the window — so its retained tail is released
// while it runs and not by its DELETE.
func TestPushShortQueryStillAcks(t *testing.T) {
	const rows, size = 2000, 67 // 30 blocks against a window of 1024
	srv, ts := dataServer(t, rows, service.Config{})
	c, err := New(ts.URL, wire.Binary{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetPush(PushConfig{Enabled: true})
	ctx := context.Background()
	sess, err := c.OpenSession(ctx, Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxAckBatch; i++ {
		if _, err := sess.Next(ctx, size); err != nil {
			t.Fatal(err)
		}
	}
	// The grant is posted off this goroutine; give it its turn.
	for start := time.Now(); srv.Stats().PushCreditGrants == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 2*time.Second {
			t.Fatalf("no credit grant after %d of %d blocks at a window of %d", maxAckBatch, rows/size+1, service.DefaultPushMaxWindow)
		}
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPushOverDelay is whole push queries over a 10 ms round trip
// at pinned windows and at the default, the server's cap (DESIGN.md §19
// has the table): what the window is worth when the link, not the CPU, is
// the limit — in the short row, what a query's fixed round trips are
// worth when its 20 blocks stream in about one, and in the frame=1MiB
// row, whether frames of a megabyte still stream under the byte budget
// or fall to stop-and-wait.
func BenchmarkPushOverDelay(b *testing.B) {
	for _, tc := range []struct {
		name               string
		rows, window, size int
		width              int // pad every row to this many bytes (0 = dataCatalog's)
	}{
		{"window=4", 20000, 4, 100, 0},
		{"window=16", 20000, 16, 100, 0},
		{"window=64", 20000, 64, 100, 0},
		{"window=default", 20000, 0, 100, 0},
		{"short/window=default", 2000, 0, 100, 0},
		{"frame=1MiB/window=default", 16000, 0, 1000, 1000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var cat *minidb.Catalog
			if tc.width > 0 {
				cat = wideCatalog(b, tc.rows, tc.width)
			} else {
				cat = dataCatalog(b, tc.rows)
			}
			c, _ := delayStack(b, cat, tc.window)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Run(context.Background(), Query{Table: "data"}, core.NewStatic(tc.size), MetricPerBlock, false)
				if err != nil || res.Tuples != tc.rows {
					b.Fatalf("push run: %+v, %v", res, err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(tc.rows)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			if err := c.Wait(context.Background()); err != nil {
				b.Fatal(err)
			}
		})
	}
}
