package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wsopt/internal/core"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// These tests pin the two fixed costs a push query no longer pays on its
// critical path: the session is created by the stream open that fetches
// the first block, and a finished transfer returns without waiting for
// its close (Client.Wait joins that).

// requestLog is an http.RoundTripper that records every request a client
// sends, as "METHOD last-path-segment", and can hold DELETEs back.
type requestLog struct {
	mu         sync.Mutex
	seen       []string
	holdDelete time.Duration
}

func (l *requestLog) RoundTrip(req *http.Request) (*http.Response, error) {
	l.mu.Lock()
	l.seen = append(l.seen, req.Method+" "+req.URL.Path[strings.LastIndexByte(req.URL.Path, '/')+1:])
	l.mu.Unlock()
	if req.Method == http.MethodDelete && l.holdDelete > 0 {
		time.Sleep(l.holdDelete)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// count is how many recorded requests are what; all returns them in order.
func (l *requestLog) count(what string) (n int) {
	for _, r := range l.all() {
		if r == what {
			n++
		}
	}
	return n
}

func (l *requestLog) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.seen...)
}

// TestPushQueryPaysOneRequestBeforeItsFirstBlock: the first request of a
// push Run is the stream open — no POST /sessions goes out at all — and
// Run returns while the DELETE is still held up; Wait returns once it has
// landed and the server holds no session.
func TestPushQueryPaysOneRequestBeforeItsFirstBlock(t *testing.T) {
	const rows, hold = 1000, 200 * time.Millisecond
	srv, ts := dataServer(t, rows, service.Config{})
	reqs := &requestLog{holdDelete: hold}
	c, err := New(ts.URL, wire.Binary{}, &http.Client{Transport: reqs})
	if err != nil {
		t.Fatal(err)
	}
	c.SetPush(PushConfig{Enabled: true})
	// The first block's event is written before any grant can be posted.
	var beforeFirstBlock []string
	c.SetEvents(eventFunc(func(ev BlockEvent) error {
		if beforeFirstBlock == nil {
			beforeFirstBlock = reqs.all()
		}
		return nil
	}))

	start := time.Now()
	res, err := c.Run(context.Background(), Query{Table: "data"}, core.NewStatic(50), MetricPerBlock, false)
	took := time.Since(start)
	if err != nil || res.Tuples != rows || res.Retries != 0 {
		t.Fatalf("push run: %+v, %v", res, err)
	}
	if len(beforeFirstBlock) != 1 || beforeFirstBlock[0] != "POST stream" {
		t.Errorf("requests before the first block: %v, want the stream open alone", beforeFirstBlock)
	}
	if n := reqs.count("POST sessions"); n != 0 {
		t.Errorf("%d POST /sessions sent; the stream open creates the session", n)
	}
	if took >= hold {
		t.Errorf("Run took %v with DELETE held for %v: it waited for its close", took, hold)
	}
	if srv.SessionCount() != 1 {
		t.Errorf("%d sessions live while the DELETE is held, want 1", srv.SessionCount())
	}
	if err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if since := time.Since(start); since < hold {
		t.Errorf("Wait returned %v after the run began, before the held DELETE (%v) could land", since, hold)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Errorf("%d sessions live after Wait; requests %v", n, reqs.all())
	}
	if st := srv.Stats(); st.SessionsOpened != 1 || st.PushStreamsOpened != 1 {
		t.Errorf("%d sessions, %d streams opened, want 1 and 1", st.SessionsOpened, st.PushStreamsOpened)
	}

	// Wait gives up with its context.
	reqs.holdDelete = 2 * time.Second
	if _, err := c.Run(context.Background(), Query{Table: "data"}, core.NewStatic(500), MetricPerBlock, false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c.Wait(ctx); err != context.DeadlineExceeded {
		t.Errorf("Wait under an expired context = %v", err)
	}
	if err := c.Wait(context.Background()); err != nil || srv.SessionCount() != 0 {
		t.Errorf("Wait = %v with %d sessions live", err, srv.SessionCount())
	}
}

type eventFunc func(BlockEvent) error

func (f eventFunc) Write(ev BlockEvent) error { return f(ev) }

// TestVectorChunkSessionsPayOneRequestEach: every chunk of a RunVector is
// a session of its own, and each costs the run one request that carries
// no block of it — the creating open, which carries the first — where it
// used to cost three. DELETEs are held long enough that a run which
// waited for them could not finish in time.
func TestVectorChunkSessionsPayOneRequestEach(t *testing.T) {
	const rows, chunk, hold = 2000, 250, 150 * time.Millisecond
	srv, ts := dataServer(t, rows, service.Config{})
	reqs := &requestLog{holdDelete: hold}
	c, err := New(ts.URL, wire.Binary{}, &http.Client{Transport: reqs})
	if err != nil {
		t.Fatal(err)
	}
	c.SetPush(PushConfig{Enabled: true})
	start := time.Now()
	res, err := c.RunVector(context.Background(), Query{Table: "data"}, core.NewStatic(50), VectorRunConfig{ChunkTuples: chunk})
	took := time.Since(start)
	if err != nil || res.Tuples != rows {
		t.Fatalf("vector push run: %+v, %v", res, err)
	}
	// rows/chunk full leases and the empty one that finds the end.
	if res.Chunks != rows/chunk+1 || reqs.count("POST stream") != res.Chunks || reqs.count("POST sessions") != 0 {
		t.Errorf("%d chunks: %d stream opens, %d POST /sessions; want one open per chunk and nothing else",
			res.Chunks, reqs.count("POST stream"), reqs.count("POST sessions"))
	}
	if took >= time.Duration(res.Chunks)*hold/2 {
		t.Errorf("%d chunks took %v with every DELETE held for %v: the chunks waited for their closes", res.Chunks, took, hold)
	}
	if err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); srv.SessionCount() != 0 || st.StreamGroupsActive != 0 || st.PeakGroupStreams != 1 {
		t.Errorf("after Wait: %d sessions live, %d groups active, peak fan-out %d; want 0, 0, 1", srv.SessionCount(), st.StreamGroupsActive, st.PeakGroupStreams)
	}
}

// TestPushAgainstTierWithoutStreams: a push client against a tier that
// does not serve /stream — one whose mux has no such route answers 404,
// a gateway answers 501. The creating open's
// refusal used to read as a lost session, and the client re-opened
// sessions in a tight loop until its context ended (14 852 in two
// seconds). It is a tier that pulls: the session is opened by POST
// /sessions, the query completes over /next, and the client asks each
// endpoint once, not once a query.
func TestPushAgainstTierWithoutStreams(t *testing.T) {
	const rows = 900
	for _, tier := range []struct {
		name string
		url  func(t *testing.T) (url string, sessionsOpened func() int64)
	}{
		{"push disabled", func(t *testing.T) (string, func() int64) {
			srv, _ := dataServer(t, rows, service.Config{})
			g := &gate{h: srv.Handler()}
			g.pullOnly.Store(true)
			ts := httptest.NewServer(g)
			t.Cleanup(ts.Close)
			return ts.URL, func() int64 { return srv.Stats().SessionsOpened }
		}},
		{"gateway", func(t *testing.T) (string, func() int64) {
			gw, url, _ := startGatewayFleet(t, 2, rows)
			return url, func() int64 { return gw.Stats().SessionsOpened }
		}},
	} {
		t.Run(tier.name, func(t *testing.T) {
			url, sessionsOpened := tier.url(t)
			reqs := new(requestLog)
			codec, table := wire.Codec(wire.Binary{}), "data"
			if tier.name == "gateway" {
				codec, table = wire.XML{}, "items"
			}
			c, err := New(url, codec, &http.Client{Transport: reqs})
			if err != nil {
				t.Fatal(err)
			}
			c.SetPush(PushConfig{Enabled: true})
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			for q := 1; q <= 2; q++ {
				res, err := c.Run(ctx, Query{Table: table}, core.NewStatic(100), MetricPerBlock, false)
				if err != nil || res.Tuples != rows {
					t.Fatalf("query %d: %+v, %v", q, res, err)
				}
				if got := sessionsOpened(); got != int64(q) {
					t.Fatalf("%d sessions opened after %d queries: %v", got, q, reqs.all())
				}
			}
			if n := reqs.count("POST stream"); n != 1 {
				t.Errorf("%d stream opens over two queries, want the one probe: %v", n, reqs.all())
			}
			if reqs.count("POST next") == 0 || reqs.count("POST credit") != 0 {
				t.Errorf("the queries did not complete as plain pulls: %v", reqs.all())
			}
			// The chunk sessions of a vector run skip the probe too.
			vres, err := c.RunVector(ctx, Query{Table: table}, core.NewStatic(100), VectorRunConfig{ChunkTuples: 300})
			if err != nil || vres.Tuples != rows || reqs.count("POST stream") != 1 {
				t.Errorf("vector run: %+v, %v, %d stream opens in all", vres, err, reqs.count("POST stream"))
			}
			if err := c.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCreatingOpenRefusalsSurface: what the create path refuses reads on
// the creating open as it reads on POST /sessions — an unknown table, a
// bad where clause and a negative offset are permanent errors carrying
// the server's message, sent once; a shed open is transient and its
// Retry-After is honoured — through Run and through the engine's own
// steps (Client.session, Session.Next).
func TestCreatingOpenRefusalsSurface(t *testing.T) {
	const retryAfter = 60 * time.Millisecond
	srv, ts := dataServer(t, 100, service.Config{MaxSessions: 1, RetryAfter: retryAfter})
	for _, tc := range []struct {
		name      string
		q         Query
		full      bool // the server is at its session limit
		transient bool
		message   string
		requests  []string
	}{
		// A 404 may be the mux's (no /stream on this tier), so POST /sessions
		// is asked too, and its answer is the one that surfaces.
		{"unknown table", Query{Table: "ghost"}, false, false, `no such table "ghost"`, []string{"POST stream", "POST sessions"}},
		{"bad where", Query{Table: "data", Where: "k >"}, false, false, "bad where clause", []string{"POST stream"}},
		{"negative offset", Query{Table: "data", Offset: -1}, false, false, "offset must be non-negative", []string{"POST stream"}},
		{"shed", Query{Table: "data"}, true, true, "session limit reached", []string{"POST stream", "POST stream"}},
	} {
		for _, via := range []string{"Run", "engine"} {
			t.Run(tc.name+"/"+via, func(t *testing.T) {
				reqs := new(requestLog)
				c, err := New(ts.URL, wire.Binary{}, &http.Client{Transport: reqs})
				if err != nil {
					t.Fatal(err)
				}
				c.SetPush(PushConfig{Enabled: true})
				c.SetRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond})
				ctx := context.Background()
				if tc.full {
					held, err := c.OpenSession(ctx, Query{Table: "data"})
					if err != nil {
						t.Fatal(err)
					}
					defer held.Close(ctx)
					reqs.mu.Lock()
					reqs.seen = nil
					reqs.mu.Unlock()
				}
				start := time.Now()
				if via == "Run" {
					_, err = c.Run(ctx, tc.q, core.NewStatic(10), MetricPerBlock, false)
				} else {
					var sess *Session
					if sess, err = c.session(ctx, tc.q); err != nil {
						t.Fatalf("naming a session made a request that failed: %v", err)
					}
					if len(reqs.all()) != 0 || !strings.HasPrefix(sess.ID(), "c") || len(sess.ID()) != 33 {
						t.Fatalf("a named session is no request and a valid name: %v, %q", reqs.all(), sess.ID())
					}
					_, err = sess.Next(ctx, 10)
					_ = sess.Close(ctx)
				}
				took := time.Since(start)
				if err == nil || !strings.Contains(err.Error(), tc.message) {
					t.Fatalf("error %v, want one carrying the server's %q", err, tc.message)
				}
				if isTransient(err) != tc.transient {
					t.Errorf("transient = %v, want %v: %v", isTransient(err), tc.transient, err)
				}
				var got []string
				for _, r := range reqs.all() {
					if !strings.HasPrefix(r, "DELETE") { // the close of what was never created
						got = append(got, r)
					}
				}
				if strings.Join(got, ", ") != strings.Join(tc.requests, ", ") {
					t.Errorf("requests %v, want %v", got, tc.requests)
				}
				if tc.transient && took < retryAfter {
					t.Errorf("two attempts in %v: the server's Retry-After of %v was not honoured", took, retryAfter)
				}
				want := 0
				if tc.full {
					want = 1
				}
				if err := c.Wait(ctx); err != nil || srv.SessionCount() != want {
					t.Errorf("Wait = %v, %d sessions live, want %d", err, srv.SessionCount(), want)
				}
			})
		}
	}
}

// TestPushPendingSessionIsNeverPulled: sessions named before a tier that
// does not stream has said so are still pending — no request created
// them — when the first session's open meets the tier's 501 and falls
// back. Each must take its own open and fall back by itself, never pull
// a session the tier does not know (404). One is named before the first
// session's open is sent, one while its answer is held.
func TestPushPendingSessionIsNeverPulled(t *testing.T) {
	const rows, size = 100, 10
	srv, err := service.New(service.Config{Catalog: dataCatalog(t, rows), Codec: wire.Binary{}})
	if err != nil {
		t.Fatal(err)
	}
	// The tier answers every stream open 501, as the gateway does; the
	// first one's answer waits until a second session has been named.
	named := make(chan struct{})
	var held sync.Once
	tier := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			held.Do(func() { <-named })
			http.Error(w, "this tier does not stream", http.StatusNotImplemented)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer tier.Close()
	c, err := New(tier.URL, wire.Binary{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetPush(PushConfig{Enabled: true})
	ctx := context.Background()
	name := func() *Session {
		t.Helper()
		sess, err := c.session(ctx, Query{Table: "data"})
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	drain := func(sess *Session) (tuples int, err error) {
		defer sess.Close(ctx)
		for !sess.Done() {
			blk, err := sess.Next(ctx, size)
			if err != nil {
				return tuples, err
			}
			tuples += blk.Tuples
		}
		return tuples, nil
	}

	first := name()
	namedEarly := name()
	fell := make(chan error, 1)
	go func() {
		_, err := first.Next(ctx, size)
		fell <- err
	}()
	namedLate := name()
	close(named)
	if err := <-fell; err != nil {
		t.Fatalf("first session: %v", err)
	}
	if tuples, err := drain(first); err != nil || tuples != rows-size {
		t.Errorf("first session: %d of %d tuples after its first block, %v", tuples, rows-size, err)
	}
	for _, tc := range []struct {
		name string
		sess *Session
	}{
		{"named before the first open", namedEarly},
		{"named while its answer is held", namedLate},
	} {
		if tuples, err := drain(tc.sess); err != nil || tuples != rows {
			t.Errorf("%s: %d of %d tuples, %v", tc.name, tuples, rows, err)
		}
	}
	if err := c.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.SessionsOpened != 3 || st.PushFramesSent != 0 {
		t.Errorf("%d sessions opened, %d push frames; want 3 by POST /sessions and none pushed", st.SessionsOpened, st.PushFramesSent)
	}
}

// TestPushOpenedSessionStreams: a session opened by OpenSession under
// push streams through Session.Next, as Run's sessions do — one POST
// /sessions, one stream open, no /next.
func TestPushOpenedSessionStreams(t *testing.T) {
	const rows, size = 500, 100
	srv, ts := dataServer(t, rows, service.Config{})
	reqs := new(requestLog)
	c, err := New(ts.URL, wire.Binary{}, &http.Client{Transport: reqs})
	if err != nil {
		t.Fatal(err)
	}
	c.SetPush(PushConfig{Enabled: true})
	ctx := context.Background()
	sess, err := c.OpenSession(ctx, Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	tuples := 0
	for !sess.Done() {
		blk, err := sess.Next(ctx, size)
		if err != nil {
			t.Fatal(err)
		}
		tuples += blk.Tuples
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if tuples != rows {
		t.Errorf("%d of %d tuples", tuples, rows)
	}
	if reqs.count("POST sessions") != 1 || reqs.count("POST stream") != 1 || reqs.count("POST next") != 0 {
		t.Errorf("requests %v, want one POST /sessions, one stream open and no pull", reqs.all())
	}
	if st := srv.Stats(); st.PushFramesSent == 0 {
		t.Error("the session pulled: no push frame was sent")
	}
}
