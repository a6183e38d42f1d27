package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wsopt/internal/core"
	"wsopt/internal/minidb"
	"wsopt/internal/netsim"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

func testStack(t *testing.T, rows int, codec wire.Codec) (*Client, *service.Server) {
	t.Helper()
	return testStackHC(t, rows, codec, nil)
}

// dataCatalog is a catalog of one table "data" of rows tuples (k, "v<k>").
func dataCatalog(tb testing.TB, rows int) *minidb.Catalog {
	tb.Helper()
	cat := minidb.NewCatalog()
	tbl, err := cat.CreateTable("data", minidb.Schema{
		{Name: "k", Type: minidb.Int64},
		{Name: "v", Type: minidb.String},
	})
	if err != nil {
		tb.Fatal(err)
	}
	batch := make([]minidb.Row, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, minidb.Row{minidb.NewInt(int64(i)), minidb.NewString(fmt.Sprintf("v%d", i))})
	}
	if err := tbl.BulkLoad(batch); err != nil {
		tb.Fatal(err)
	}
	return cat
}

// testStackHC is testStack with a caller-supplied http.Client (e.g. a
// dial-counting one).
func testStackHC(t *testing.T, rows int, codec wire.Codec, hc *http.Client) (*Client, *service.Server) {
	t.Helper()
	srv, err := service.New(service.Config{
		Catalog:   dataCatalog(t, rows),
		Codec:     codec,
		CostModel: netsim.CostModel{LatencyMS: 5, PerTupleMS: 0.01},
		// SleepScale 0: price blocks without real sleeping.
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, codec, hc)
	if err != nil {
		t.Fatal(err)
	}
	return c, srv
}

func TestNewValidation(t *testing.T) {
	if _, err := New("://bad", wire.XML{}, nil); err == nil {
		t.Error("malformed URL accepted")
	}
	if _, err := New("/relative", wire.XML{}, nil); err == nil {
		t.Error("relative URL accepted")
	}
	if _, err := New("http://localhost:1", nil, nil); err != nil {
		t.Errorf("nil codec should default: %v", err)
	}
}

func TestSessionPull(t *testing.T) {
	c, _ := testStack(t, 55, wire.XML{})
	ctx := context.Background()
	sess, err := c.OpenSession(ctx, Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Columns(); len(got) != 2 || got[0] != "k" {
		t.Fatalf("columns = %v", got)
	}
	total := 0
	for !sess.Done() {
		blk, err := sess.Next(ctx, 20)
		if err != nil {
			t.Fatal(err)
		}
		total += len(blk.Rows())
		if blk.Elapsed <= 0 {
			t.Fatal("elapsed not measured")
		}
		if blk.InjectedMS <= 0 {
			t.Fatal("injected delay header not propagated")
		}
	}
	if total != 55 {
		t.Fatalf("pulled %d rows, want 55", total)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Closing twice is fine (404 tolerated).
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSessionPullBinary(t *testing.T) {
	c, _ := testStack(t, 33, wire.Binary{})
	ctx := context.Background()
	sess, err := c.OpenSession(ctx, Query{Table: "data", Columns: []string{"k"}})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := sess.Next(ctx, 33)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Rows()) != 33 || len(blk.Schema) != 1 {
		t.Fatalf("block shape wrong: %d rows, %d cols", len(blk.Rows()), len(blk.Schema))
	}
	if !blk.Done {
		// An exact-multiple block cannot know it was final; the next pull
		// returns an empty block flagged done.
		blk2, err := sess.Next(ctx, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(blk2.Rows()) != 0 || !blk2.Done {
			t.Fatalf("trailing block = %d rows, done=%v; want empty done block", len(blk2.Rows()), blk2.Done)
		}
	}
}

func TestSessionErrors(t *testing.T) {
	c, _ := testStack(t, 10, wire.XML{})
	ctx := context.Background()
	if _, err := c.OpenSession(ctx, Query{Table: "ghost"}); err == nil {
		t.Error("unknown table should fail")
	}
	sess, err := c.OpenSession(ctx, Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Next(ctx, 0); err == nil {
		t.Error("size 0 should fail client-side")
	}
	if _, err := sess.Next(ctx, 100); err != nil {
		t.Fatal(err)
	}
	if !sess.Done() {
		t.Fatal("10 rows in one 100-block: session should be done")
	}
	if _, err := sess.Next(ctx, 10); err == nil {
		t.Error("pulling an exhausted session should fail")
	}
}

func TestRunAlgorithmOne(t *testing.T) {
	c, _ := testStack(t, 500, wire.XML{})
	cfg := core.Config{
		InitialSize: 50, Limits: core.Limits{Min: 10, Max: 200},
		B1: 30, B2: 25, AvgHorizon: 1, CriterionWindow: 5, CriterionThreshold: 1,
	}
	ctl, err := core.NewConstant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), Query{Table: "data"}, ctl, MetricPerTuple, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples != 500 {
		t.Fatalf("transferred %d tuples, want 500", res.Tuples)
	}
	if res.Blocks < 3 {
		t.Fatalf("suspiciously few blocks: %d", res.Blocks)
	}
	if len(res.Sizes) != res.Blocks {
		t.Fatal("per-block sizes not recorded")
	}
	if res.SimulatedMS <= 0 {
		t.Fatal("simulated cost not accumulated")
	}
	// The controller must have adapted: sizes are not all equal.
	allSame := true
	for _, s := range res.Sizes[1:] {
		if s != res.Sizes[0] {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("controller never adapted during the live run")
	}
}

func TestRunStaticController(t *testing.T) {
	c, _ := testStack(t, 120, wire.XML{})
	res, err := c.Run(context.Background(), Query{Table: "data"}, core.NewStatic(50), MetricPerBlock, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples != 120 || res.Blocks != 3 {
		t.Fatalf("static run: %d tuples in %d blocks", res.Tuples, res.Blocks)
	}
}

func TestSetLoad(t *testing.T) {
	c, srv := testStack(t, 10, wire.XML{})
	if err := c.SetLoad(context.Background(), 3, 2, 0.25); err != nil {
		t.Fatal(err)
	}
	if got := srv.Load(); got.Jobs != 3 || got.Queries != 2 || got.Memory != 0.25 {
		t.Fatalf("load = %+v", got)
	}
	if err := c.SetLoad(context.Background(), -1, 0, 0); err == nil {
		t.Error("invalid load should be rejected")
	}
}

func TestServerFailureSurfaces(t *testing.T) {
	// A server that always 500s.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	c, err := New(ts.URL, wire.XML{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenSession(context.Background(), Query{Table: "data"}); err == nil {
		t.Fatal("500 should surface as an error")
	}
}

// blockFrame is a /next body: rows encoded with codec, framed under m.
func blockFrame(tb testing.TB, codec wire.Codec, m service.BlockMeta, schema minidb.Schema, rows []minidb.Row) []byte {
	tb.Helper()
	var payload, frame bytes.Buffer
	if err := codec.Encode(&payload, schema, rows); err != nil {
		tb.Fatal(err)
	}
	if err := wire.WriteFrame(&frame, m.Frame(payload.Bytes())); err != nil {
		tb.Fatal(err)
	}
	return frame.Bytes()
}

func TestTruncatedBlockDetected(t *testing.T) {
	// A server that announces more tuples than it ships.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sessions" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, `{"session":"s1","columns":["k"]}`)
			return
		}
		_, _ = w.Write(blockFrame(t, wire.XML{}, service.BlockMeta{Tuples: 10}, minidb.Schema{{Name: "k", Type: minidb.Int64}},
			[]minidb.Row{{minidb.NewInt(1)}}))
	}))
	defer ts.Close()
	c, _ := New(ts.URL, wire.XML{}, nil)
	sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Next(context.Background(), 10); err == nil {
		t.Fatal("tuple-count mismatch should be detected")
	}
}

// TestPullBodyIsCapped: a /next frame longer than any block may be — the
// push frame's cap — fails the pull at its header, before a payload byte
// is read, as transient as an oversize push frame, with an error naming
// the cap; the client's heap does not grow with the body.
func TestPullBodyIsCapped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sessions" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, `{"session":"s1","columns":["k"]}`)
			return
		}
		var hdr bytes.Buffer
		_ = wire.WriteFrame(&hdr, wire.Frame{Type: wire.FrameData})
		binary.BigEndian.PutUint32(hdr.Bytes()[28:32], wire.MaxFramePayload+1) // the payload length
		if _, err := w.Write(hdr.Bytes()); err != nil {
			return
		}
		chunk := make([]byte, 64<<10)
		for left := wire.MaxFramePayload + 1; left > 0; left -= len(chunk) {
			if _, err := w.Write(chunk[:min(left, len(chunk))]); err != nil {
				return // the client hung up past the cap
			}
		}
	}))
	defer ts.Close()
	c, _ := New(ts.URL, wire.Binary{}, nil)
	sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Next(context.Background(), 10)
	if !errors.Is(err, wire.ErrFrameTooLarge) || !isTransient(err) || !strings.Contains(fmt.Sprint(err), strconv.Itoa(wire.MaxFramePayload)) {
		t.Fatalf("pull of a %d-byte body: err = %v, want a transient error naming the %d-byte cap", wire.MaxFramePayload+1, err, wire.MaxFramePayload)
	}
}

// TestRetryReplaysTruncatedResponse drives the exact failure the replay
// buffer exists for: the first response is cut off mid-body, and the
// client's same-seq retry receives the replayed block intact.
func TestRetryReplaysTruncatedResponse(t *testing.T) {
	schema := minidb.Schema{{Name: "k", Type: minidb.Int64}}
	rows := []minidb.Row{{minidb.NewInt(1)}, {minidb.NewInt(2)}, {minidb.NewInt(3)}}
	var pulls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sessions" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, `{"session":"s1","columns":["k"]}`)
			return
		}
		meta := service.BlockMeta{Tuples: 3, Done: true}
		if pulls.Add(1) == 1 {
			// Truncate: announce the full length, ship half, sever.
			buf := blockFrame(t, wire.XML{}, meta, schema, rows)
			w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
			_, _ = w.Write(buf[:len(buf)/2])
			panic(http.ErrAbortHandler)
		}
		meta.Replayed = true
		_, _ = w.Write(blockFrame(t, wire.XML{}, meta, schema, rows))
	}))
	defer ts.Close()

	c, _ := New(ts.URL, wire.XML{}, nil)
	c.SetRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := sess.Next(context.Background(), 3)
	if err != nil {
		t.Fatalf("truncated response should be recovered by the retry: %v", err)
	}
	if len(blk.Rows()) != 3 || !blk.Done {
		t.Fatalf("recovered block = %d rows, done=%v", len(blk.Rows()), blk.Done)
	}
	if blk.Attempts != 2 || !blk.Replayed {
		t.Fatalf("attempts = %d, replayed = %v; want the second attempt to be a replay", blk.Attempts, blk.Replayed)
	}
}

// TestRunRejectsSilentTruncation covers the Run-level satellite: an empty
// block without the done flag must surface as an error, not a silently
// short result.
func TestRunRejectsSilentTruncation(t *testing.T) {
	var pulls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sessions" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, `{"session":"s1","columns":["k"]}`)
			return
		}
		schema := minidb.Schema{{Name: "k", Type: minidb.Int64}}
		var rows []minidb.Row
		if pulls.Add(1) == 1 {
			rows = []minidb.Row{{minidb.NewInt(1)}}
		}
		// Never sets the done flag: the second block is empty + not done.
		_, _ = w.Write(blockFrame(t, wire.XML{}, service.BlockMeta{Tuples: len(rows)}, schema, rows))
	}))
	defer ts.Close()

	c, _ := New(ts.URL, wire.XML{}, nil)
	res, err := c.Run(context.Background(), Query{Table: "data"}, core.NewStatic(10), MetricPerBlock, false)
	if err == nil {
		t.Fatal("empty not-done block should be an error, not a short success")
	}
	if res.Tuples != 1 {
		t.Fatalf("partial result should report the 1 tuple delivered, got %d", res.Tuples)
	}

	// RunPipelined must reject it too.
	pulls.Store(0)
	if _, err := c.RunPipelined(context.Background(), Query{Table: "data"},
		core.NewStatic(10), MetricPerBlock, false, nil); err == nil {
		t.Fatal("pipelined run should reject an empty not-done block")
	}
}

func TestEndpointEscapesSessionIDs(t *testing.T) {
	c, err := New("http://localhost:9", wire.XML{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := c.endpoint("sessions", "s/../../etc", "next")
	if err != nil {
		t.Fatal(err)
	}
	want := "http://localhost:9/sessions/s%2F..%2F..%2Fetc/next"
	if u != want {
		t.Fatalf("endpoint = %q, want %q (id must be path-escaped)", u, want)
	}
	if _, err := c.endpoint("sessions", "", "next"); err == nil {
		t.Fatal("empty segment should be rejected")
	}
}

func TestContextCancellation(t *testing.T) {
	c, _ := testStack(t, 10, wire.XML{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.OpenSession(ctx, Query{Table: "data"}); err == nil {
		t.Fatal("cancelled context should abort the request")
	}
}
