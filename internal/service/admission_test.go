package service

import (
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The regulator owns the admitted-session ceiling at runtime: lowering it
// must stop new admits immediately without evicting open sessions, and
// raising it (or setting 0 = unlimited) must take effect on the next
// create.
func TestSessionLimitIsLive(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 10), MaxSessions: 4})
	if got := srv.SessionLimit(); got != 4 {
		t.Fatalf("initial limit = %d, want the MaxSessions seed 4", got)
	}

	id1, status := openSession(t, ts, `{"table":"items"}`)
	if status != http.StatusCreated {
		t.Fatalf("first create = %d", status)
	}
	if _, status := openSession(t, ts, `{"table":"items"}`); status != http.StatusCreated {
		t.Fatalf("second create = %d", status)
	}

	// Tick the ceiling below the live population: no eviction, but no
	// admits either.
	srv.SetSessionLimit(1)
	if _, status := openSession(t, ts, `{"table":"items"}`); status != http.StatusServiceUnavailable {
		t.Fatalf("create above lowered ceiling = %d, want 503", status)
	}
	resp := pullSeq(t, ts, id1, 3, 1)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open session evicted by a lowered ceiling: pull = %s", resp.Status)
	}

	// Raise it again and the next create is admitted.
	srv.SetSessionLimit(8)
	if _, status := openSession(t, ts, `{"table":"items"}`); status != http.StatusCreated {
		t.Fatalf("create after raised ceiling = %d, want 201", status)
	}

	// Negative clamps to 0 = unlimited.
	srv.SetSessionLimit(-5)
	if got := srv.SessionLimit(); got != 0 {
		t.Fatalf("negative limit stored as %d, want 0", got)
	}
	for i := 0; i < 6; i++ {
		if _, status := openSession(t, ts, `{"table":"items"}`); status != http.StatusCreated {
			t.Fatalf("unlimited create %d = %d, want 201", i, status)
		}
	}
}

// Satellite of PR 4's rounding fix, extended to regulator-derived values:
// for any pressure ≥ 0 the priced Retry-After must round UP and never be
// 0 seconds — a zero hint would have shed clients retry in a tight loop
// against an already-overloaded server.
func TestRetryAfterForPressureNeverZero(t *testing.T) {
	for _, tc := range []struct {
		name     string
		base     time.Duration
		pressure float64
		wantDur  time.Duration
		wantSecs int
	}{
		{"no pressure keeps base", time.Second, 0, time.Second, 1},
		{"tiny pressure rounds up", time.Second, 0.001, 1001 * time.Millisecond, 2},
		{"half pressure", time.Second, 0.5, 1500 * time.Millisecond, 2},
		{"integer pressure", time.Second, 1, 2 * time.Second, 2},
		{"saturated pressure", time.Second, 8, 9 * time.Second, 9},
		{"sub-second base no pressure", 100 * time.Millisecond, 0, 100 * time.Millisecond, 1},
		{"sub-second base priced", 200 * time.Millisecond, 2, 600 * time.Millisecond, 1},
		{"1500ms hint rounds up, not down", 1500 * time.Millisecond, 0, 1500 * time.Millisecond, 2},
		{"sub-ms hint floors at 1ms", 100 * time.Microsecond, 0.5, time.Millisecond, 1},
		{"zero base defaults to 1s", 0, 0.5, 1500 * time.Millisecond, 2},
		{"negative pressure clamps", time.Second, -3, time.Second, 1},
		{"NaN pressure clamps", time.Second, math.NaN(), time.Second, 1},
	} {
		d := retryAfterForPressure(tc.base, tc.pressure)
		if d != tc.wantDur {
			t.Errorf("%s: retryAfterForPressure(%v, %g) = %v, want %v", tc.name, tc.base, tc.pressure, d, tc.wantDur)
		}
		secs := retryAfterSeconds(d)
		if secs != tc.wantSecs {
			t.Errorf("%s: retryAfterSeconds(%v) = %d, want %d", tc.name, d, secs, tc.wantSecs)
		}
		if secs < 1 {
			t.Errorf("%s: Retry-After %d < 1 — shed clients would hammer the server", tc.name, secs)
		}
		if d < time.Millisecond {
			t.Errorf("%s: priced backoff %v < 1ms", tc.name, d)
		}

		// The same row through the shared Admission both tiers embed: the
		// shed headers carry exactly this price.
		a := NewAdmission(1, tc.base)
		a.SetAdmissionPressure(tc.pressure)
		h := http.Header{}
		if _, ok := a.Admit(h); !ok || len(h) != 0 {
			t.Fatalf("%s: first admit under limit 1 refused (headers %v)", tc.name, h)
		}
		if limit, ok := a.Admit(h); ok || limit != 1 {
			t.Fatalf("%s: second admit = (%d, %v), want refused at 1", tc.name, limit, ok)
		}
		if got := h.Get("Retry-After"); got != strconv.Itoa(tc.wantSecs) {
			t.Errorf("%s: Retry-After = %q, want %d", tc.name, got, tc.wantSecs)
		}
		if got, want := h.Get(HeaderRetryAfterMS), strconv.FormatFloat(float64(tc.wantDur)/float64(time.Millisecond), 'f', 3, 64); got != want {
			t.Errorf("%s: %s = %q, want %q", tc.name, HeaderRetryAfterMS, got, want)
		}
		a.Release()
		if _, ok := a.Admit(h); !ok {
			t.Errorf("%s: the refused admit kept its slot: releasing the one open cursor made no room", tc.name)
		}
	}
}

// A shed response must carry all three admission headers, priced from the
// live pressure: the rounded-up integer hint, the precise millisecond
// hint, and the pressure itself.
func TestShedHeadersCarryPressurePricing(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Catalog:     testCatalog(t, 5),
		MaxSessions: 1,
		RetryAfter:  time.Second,
	})
	if _, status := openSession(t, ts, `{"table":"items"}`); status != http.StatusCreated {
		t.Fatalf("first create = %d", status)
	}
	srv.SetAdmissionPressure(0.5)

	resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(`{"table":"items"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed create = %s, want 503", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want %q (1s base × 1.5 pressure rounds up)", ra, "2")
	}
	ms, err := strconv.ParseFloat(resp.Header.Get(HeaderRetryAfterMS), 64)
	if err != nil || math.Abs(ms-1500) > 0.001 {
		t.Fatalf("%s = %q, want 1500.000", HeaderRetryAfterMS, resp.Header.Get(HeaderRetryAfterMS))
	}
	p, err := strconv.ParseFloat(resp.Header.Get(HeaderAdmissionPressure), 64)
	if err != nil || p != 0.5 {
		t.Fatalf("%s = %q, want 0.5", HeaderAdmissionPressure, resp.Header.Get(HeaderAdmissionPressure))
	}

	// Pressure relaxed: pricing returns to the base hint.
	srv.SetAdmissionPressure(0)
	resp, err = http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(`{"table":"items"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("relaxed Retry-After = %q, want %q", ra, "1")
	}
}
