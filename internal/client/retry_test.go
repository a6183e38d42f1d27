package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsopt/internal/minidb"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// flakyServer fails the first n session creations with the given status,
// then behaves.
func flakyServer(t *testing.T, failures int, status int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if int(n) <= failures {
			http.Error(w, "transient", status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"session":"s1","columns":["k"]}`)
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

func TestRetryRecoversFromTransientFailures(t *testing.T) {
	ts, calls := flakyServer(t, 2, http.StatusServiceUnavailable)
	c, err := New(ts.URL, wire.XML{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatalf("retry should have recovered: %v", err)
	}
	if sess == nil || calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3 (2 failures + 1 success)", calls.Load())
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	ts, calls := flakyServer(t, 100, http.StatusBadGateway)
	c, _ := New(ts.URL, wire.XML{}, nil)
	c.SetRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	if _, err := c.OpenSession(context.Background(), Query{Table: "data"}); err == nil {
		t.Fatal("persistent failure should surface")
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want exactly MaxAttempts", calls.Load())
	}
}

func TestNoRetryOnClientErrors(t *testing.T) {
	// 404 is not transient: one attempt only, surfaced as an error.
	ts, calls := flakyServer(t, 100, http.StatusNotFound)
	c, _ := New(ts.URL, wire.XML{}, nil)
	c.SetRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond})
	if _, err := c.OpenSession(context.Background(), Query{Table: "data"}); err == nil {
		t.Fatal("404 should surface as an error")
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (no retry on 4xx)", calls.Load())
	}
}

func TestRetryDefaultIsSingleAttempt(t *testing.T) {
	ts, calls := flakyServer(t, 100, http.StatusServiceUnavailable)
	c, _ := New(ts.URL, wire.XML{}, nil)
	if _, err := c.OpenSession(context.Background(), Query{Table: "data"}); err == nil {
		t.Fatal("failure should surface without a policy")
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 by default", calls.Load())
	}
}

func TestRetryHonorsContextCancellation(t *testing.T) {
	ts, _ := flakyServer(t, 100, http.StatusServiceUnavailable)
	c, _ := New(ts.URL, wire.XML{}, nil)
	c.SetRetry(RetryPolicy{MaxAttempts: 50, BaseDelay: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.OpenSession(ctx, Query{Table: "data"}); err == nil {
		t.Fatal("cancelled retry loop should error")
	}
	if time.Since(start) > time.Second {
		t.Fatal("retry loop ignored the context deadline")
	}
}

// blockFlakyServer 503s the first `failures` pulls, then serves one
// tuple per pull, recording the seq parameter of every pull request.
func blockFlakyServer(t *testing.T, failures int) (*httptest.Server, *atomic.Int64, func() []string) {
	t.Helper()
	var nextCalls atomic.Int64
	var mu sync.Mutex
	var seqs []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sessions" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, `{"session":"s1","columns":["k"]}`)
			return
		}
		n := nextCalls.Add(1)
		mu.Lock()
		seqs = append(seqs, r.URL.Query().Get("seq"))
		mu.Unlock()
		if int(n) <= failures {
			http.Error(w, "boom", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write(blockFrame(t, wire.XML{}, service.BlockMeta{Tuples: 1}, minidb.Schema{{Name: "k", Type: minidb.Int64}},
			[]minidb.Row{{minidb.NewInt(1)}}))
	}))
	t.Cleanup(ts.Close)
	return ts, &nextCalls, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), seqs...)
	}
}

func TestBlockPullRetriesReuseSeq(t *testing.T) {
	ts, nextCalls, seqs := blockFlakyServer(t, 2)
	c, _ := New(ts.URL, wire.XML{}, nil)
	c.SetRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := sess.Next(context.Background(), 10)
	if err != nil {
		t.Fatalf("retry should have recovered the block: %v", err)
	}
	if blk.Attempts != 3 || nextCalls.Load() != 3 {
		t.Fatalf("attempts = %d, calls = %d, want 3 each", blk.Attempts, nextCalls.Load())
	}
	for _, s := range seqs() {
		if s != "1" {
			t.Fatalf("retries must re-request the same seq; got %v", seqs())
		}
	}
	// The next fresh pull advances the seq.
	if _, err := sess.Next(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if got := seqs(); got[len(got)-1] != "2" {
		t.Fatalf("fresh pull should request seq 2; got %v", got)
	}
}

func TestBlockPullDefaultPolicySingleAttempt(t *testing.T) {
	ts, nextCalls, _ := blockFlakyServer(t, 100)
	c, _ := New(ts.URL, wire.XML{}, nil)
	sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Next(context.Background(), 10); err == nil {
		t.Fatal("failed block should surface without a policy")
	}
	if nextCalls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 by default", nextCalls.Load())
	}
}

func TestBlockPullDoesNotRetryNonTransientErrors(t *testing.T) {
	// 409 (seq conflict) and 410 (exhausted) are protocol states, not
	// transient faults: one attempt only.
	for _, status := range []int{http.StatusConflict, http.StatusGone, http.StatusNotFound} {
		var nextCalls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/sessions" {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusCreated)
				fmt.Fprint(w, `{"session":"s1","columns":["k"]}`)
				return
			}
			nextCalls.Add(1)
			http.Error(w, "nope", status)
		}))
		c, _ := New(ts.URL, wire.XML{}, nil)
		c.SetRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond})
		sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Next(context.Background(), 10); err == nil {
			t.Fatalf("status %d should surface", status)
		}
		if nextCalls.Load() != 1 {
			t.Fatalf("status %d retried %d times; must not be", status, nextCalls.Load())
		}
		ts.Close()
	}
}

func TestRetryContextExpiryKeepsLastError(t *testing.T) {
	ts, _ := flakyServer(t, 100, http.StatusServiceUnavailable)
	c, _ := New(ts.URL, wire.XML{}, nil)
	c.SetRetry(RetryPolicy{MaxAttempts: 50, BaseDelay: 20 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.OpenSession(ctx, Query{Table: "data"})
	if err == nil {
		t.Fatal("cancelled retry loop should error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context error to remain matchable", err)
	}
	if !strings.Contains(err.Error(), "503") {
		t.Fatalf("err = %v, want the last attempt's failure preserved", err)
	}
}

// The precise X-Retry-After-Ms header must win over the rounded-up
// integer Retry-After: under regulator delay pricing a 1.2s price is
// sent as Retry-After "2" + X-Retry-After-Ms "1200.000", and a
// pressure-aware client should wait ~1.2s, not 2s.
func TestParseRetryAfterPrefersPreciseHeader(t *testing.T) {
	h := http.Header{}
	h.Set("Retry-After", "2")
	h.Set(service.HeaderRetryAfterMS, "1200.000")
	if got := parseRetryAfter(h); got != 1200*time.Millisecond {
		t.Fatalf("parseRetryAfter = %v, want 1.2s from the precise header", got)
	}

	// Garbage in the precise header falls back to the integer one.
	h.Set(service.HeaderRetryAfterMS, "soon")
	if got := parseRetryAfter(h); got != 2*time.Second {
		t.Fatalf("parseRetryAfter with bad ms header = %v, want 2s fallback", got)
	}

	// A zero/negative precise value is no hint, not a zero-sleep license.
	h.Set(service.HeaderRetryAfterMS, "0")
	if got := parseRetryAfter(h); got != 2*time.Second {
		t.Fatalf("parseRetryAfter with zero ms header = %v, want 2s fallback", got)
	}

	// Absent both: zero.
	if got := parseRetryAfter(http.Header{}); got != 0 {
		t.Fatalf("parseRetryAfter on empty headers = %v, want 0", got)
	}
}
