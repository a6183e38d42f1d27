package service

import (
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Admission-control response headers. The integer Retry-After header is
// the RFC-compliant hint (whole seconds, rounded up, never 0); these two
// refine it for clients that understand them.
const (
	// HeaderRetryAfterMS carries the precise backoff hint in milliseconds.
	// The integer Retry-After header must round up (a 1.2s hint becomes
	// "2"), which at high shed rates makes every client over-wait; a
	// pressure-aware client uses this header to back off for exactly the
	// priced delay instead.
	HeaderRetryAfterMS = "X-Retry-After-Ms"
	// HeaderAdmissionPressure reports the regulator's current admission
	// pressure (0 = none) so clients and tests can observe how hard the
	// server is pushing back.
	HeaderAdmissionPressure = "X-Admission-Pressure"
)

// Admission is the regulator-actuated admission state of one tier: the
// slot counter, the live session ceiling, the delay-pricing pressure and
// the shed-response pricing. It exists once; service.Server and
// gateway.Gateway each embed one, which is also what makes both a
// regulator.Sink. The static MaxSessions value only seeds the limit; at
// runtime the SLO regulator (or an operator) owns it via SetSessionLimit,
// and every shed response prices its Retry-After from the live pressure
// rather than the configured constant.
type Admission struct {
	// base is the backoff hint a shed request gets at zero pressure.
	base time.Duration
	// cursors counts reserved slots (open cursors plus creates in
	// flight), giving the limit a hard bound without a global lock.
	cursors atomic.Int64
	// limit bounds concurrently open cursors (0 = unlimited). Read on
	// every session create, written by the regulator tick.
	limit atomic.Int64
	// pressureBits is the float64 admission pressure: 0 when the server
	// is meeting its SLO, growing while the regulator is saturated at its
	// floor and still over the setpoint. It scales the Retry-After hint so
	// refused clients spread out proportionally to how overloaded the
	// server actually is ("delay pricing").
	pressureBits atomic.Uint64
}

// NewAdmission seeds the ceiling with maxSessions (0 = unlimited) and
// prices shed responses from retryAfter (default 1s).
func NewAdmission(maxSessions int, retryAfter time.Duration) *Admission {
	a := &Admission{base: retryAfter}
	a.SetSessionLimit(maxSessions)
	return a
}

// SetSessionLimit updates the admitted-session ceiling. The regulator
// calls this every tick; n < 0 is clamped to 0 (unlimited).
func (a *Admission) SetSessionLimit(n int) {
	if n < 0 {
		n = 0
	}
	a.limit.Store(int64(n))
}

// SessionLimit returns the live admitted-session ceiling (0 = unlimited).
func (a *Admission) SessionLimit() int { return int(a.limit.Load()) }

// SetAdmissionPressure updates the delay-pricing pressure. NaN and
// negative values clamp to 0.
func (a *Admission) SetAdmissionPressure(p float64) {
	if math.IsNaN(p) || p < 0 {
		p = 0
	}
	a.pressureBits.Store(math.Float64bits(p))
}

// AdmissionPressure returns the live delay-pricing pressure.
func (a *Admission) AdmissionPressure() float64 {
	return math.Float64frombits(a.pressureBits.Load())
}

// retryAfterForPressure prices the backoff hint for a shed request:
// the configured base hint scaled by (1 + pressure), so a server that is
// merely full asks clients to come back after the base interval, while a
// server that is saturated *and* missing its SLO pushes refused clients
// further out the more overloaded it is. The result is always at least
// 1ms — pressure > 0 must never price a zero backoff, or shed clients
// would hammer the server in a zero-delay loop.
func retryAfterForPressure(base time.Duration, pressure float64) time.Duration {
	if base <= 0 {
		base = time.Second
	}
	if pressure < 0 || math.IsNaN(pressure) {
		pressure = 0
	}
	d := time.Duration(math.Round(float64(base) * (1 + pressure)))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// retryAfterSeconds converts a backoff hint to Retry-After wire format:
// whole seconds, rounded up (a 1500ms hint must not tell clients to come
// back after 1s), minimum 1.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Admit reserves an admission slot for a new cursor. With no live limit
// it only counts; at the limit it gives the slot back, sets the shed
// headers on h — rounded-up Retry-After, the precise millisecond hint,
// and the pressure that priced them — and reports the limit that
// refused, for the caller's 503. The reservation is a single atomic add,
// giving a hard bound even under concurrent creates; the caller must
// Release when the cursor closes (or when creation fails). The limit is
// the *live* regulator setpoint, not the configured constant: a tick that
// lowers it does not evict open cursors, it only stops admitting new ones
// until attrition brings the population under the new ceiling.
func (a *Admission) Admit(h http.Header) (limit int64, ok bool) {
	n := a.cursors.Add(1)
	limit = a.limit.Load()
	if limit <= 0 || n <= limit {
		return limit, true
	}
	a.cursors.Add(-1)
	p := a.AdmissionPressure()
	d := retryAfterForPressure(a.base, p)
	h.Set("Retry-After", strconv.Itoa(retryAfterSeconds(d)))
	h.Set(HeaderRetryAfterMS, strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64))
	h.Set(HeaderAdmissionPressure, strconv.FormatFloat(p, 'f', 4, 64))
	return limit, false
}

// Release returns an admission slot.
func (a *Admission) Release() { a.cursors.Add(-1) }

// admitCursor reserves a slot for a new cursor or sheds the request with
// 503 + Retry-After — before any query executes, so shedding is cheap.
func (s *Server) admitCursor(w http.ResponseWriter) bool {
	limit, ok := s.Admit(w.Header())
	if !ok {
		s.stats.sessionsShed.Add(1)
		httpError(w, http.StatusServiceUnavailable,
			"session limit reached (%d open)", limit)
	}
	return ok
}
