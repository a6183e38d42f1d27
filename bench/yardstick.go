package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"
)

// The yardstick measures how fast the machine is right now, so the timed
// trials can be reported as if it ran at one fixed speed.
//
// The sandbox is a small VM on a shared host, and its speed wanders by
// ±15 % over tens of seconds — not the clock rate (a plain CPU loop moves
// a third as much) but whatever a request/response ping-pong between two
// goroutines pays for system calls and cross-CPU wake-ups, which is what
// every workload here is made of. A run cannot average that out, and ten
// runs of the same code spread by 10–50 % of their median.
//
// So each trial is bracketed by two short slices of a reference
// ping-pong — a bare net/http server and client on loopback, an 8 KiB
// response, no code of this repository anywhere in it — and the trial's
// times are scaled by the reference's speed over its nominal speed. Over
// ten minutes of alternating slices the two move together (correlation
// 0.98 between 30 s windows), and the scaled figures spread a third to a
// fifth as much as the raw ones. A change to the repository cannot move
// the yardstick; a slower machine moves both alike.
type yardstick struct {
	ts      *httptest.Server
	hc      *http.Client
	payload []byte
}

const (
	// yardstickNominal is the reference speed every figure is scaled to,
	// in round trips per second: the 2-core sandbox on a quiet day. It
	// only fixes the unit; a ratio of two runs does not depend on it.
	yardstickNominal = 30000.0
	// yardstickSlice is how long one reference slice runs; trialLen how
	// long the trial between two slices runs before it ends at the next
	// query boundary.
	yardstickSlice = 50 * time.Millisecond
	trialLen       = 200 * time.Millisecond
)

func newYardstick() (*yardstick, error) {
	y := &yardstick{payload: make([]byte, 8<<10)}
	y.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		// Read the payload once, as a handler that produced it would have.
		var sum byte
		for _, b := range y.payload {
			sum += b
		}
		y.payload[0] = sum
		w.Write(y.payload)
	}))
	y.hc = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	// Connection, pools and code paths warm.
	if _, err := y.run(4 * yardstickSlice); err != nil {
		y.close()
		return nil, err
	}
	return y, nil
}

// run ping-pongs for d and returns the machine's speed over it: round
// trips per second over yardstickNominal, 1 on the nominal machine and
// below 1 on a slower one.
func (y *yardstick) run(d time.Duration) (float64, error) {
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		resp, err := y.hc.Post(y.ts.URL, "application/octet-stream", nil)
		if err != nil {
			return 0, fmt.Errorf("yardstick round trip: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("yardstick round trip: %w", err)
		}
		n++
	}
	return float64(n) / time.Since(start).Seconds() / yardstickNominal, nil
}

func (y *yardstick) close() {
	y.hc.CloseIdleConnections()
	y.ts.Close()
}
