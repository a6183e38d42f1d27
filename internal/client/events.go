package client

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Structured transfer traces: one JSONL event per block handed off by
// the transfer engine, the machine-readable counterpart of `wsquery
// -trace`. Captured event logs are the raw material for offline tuning —
// replaying a real transfer against candidate controllers, fitting cost
// models, or comparing convergence across runs.

// BlockEvent describes one block transfer end to end: what was asked
// for, what arrived, how long it took, and what the controller decided
// next.
type BlockEvent struct {
	// Session is the id of the server-side session that served the block.
	// With Seq it attributes the event: concurrent vector streams
	// interleave in one trace, and a failover or re-open moves a run to a
	// fresh session whose Seq restarts at 1.
	Session string `json:"session"`
	// Seq is the block's sequence number within the session (1-based).
	Seq uint64 `json:"seq"`
	// Size is the block size the controller commanded for this pull.
	Size int `json:"size"`
	// Tuples is how many tuples actually arrived.
	Tuples int `json:"tuples"`
	// Bytes is the encoded payload size received.
	Bytes int64 `json:"bytes"`
	// RTTMS is the client-observed round-trip time in milliseconds
	// (successful attempt only).
	RTTMS float64 `json:"rtt_ms"`
	// InjectedMS is the server-reported simulated delay, when any.
	InjectedMS float64 `json:"injected_ms,omitempty"`
	// Decision is the controller's block size for the next pull, taken
	// after it observed this block.
	Decision int `json:"decision"`
	// Phase is the controller phase after the observation ("transient"
	// or "steady" for switching controllers, empty otherwise).
	Phase string `json:"phase,omitempty"`
	// Retries counts extra pull attempts this block needed beyond the
	// first.
	Retries int `json:"retries"`
	// Replayed is true when the server served the block from its replay
	// buffer (an earlier attempt's response was lost in flight).
	Replayed bool `json:"replayed,omitempty"`
	// Done is true on the final block of the result set.
	Done bool `json:"done,omitempty"`
	// Controller names the deciding controller.
	Controller string `json:"controller,omitempty"`
	// Endpoint is the replica base URL that served the block (empty in
	// single-endpoint traces written before resilience support).
	Endpoint string `json:"endpoint,omitempty"`
	// Failovers counts session failovers that happened during this pull.
	Failovers int `json:"failovers,omitempty"`
}

// EventWriter emits BlockEvents as JSON Lines. Safe for concurrent use.
type EventWriter struct {
	mu  sync.Mutex
	buf *bufio.Writer
	enc *json.Encoder
}

// NewEventWriter writes events to w, one JSON object per line. Call
// Flush before closing the underlying writer.
func NewEventWriter(w io.Writer) *EventWriter {
	buf := bufio.NewWriter(w)
	return &EventWriter{buf: buf, enc: json.NewEncoder(buf)}
}

// Write appends one event line.
func (ew *EventWriter) Write(ev BlockEvent) error {
	ew.mu.Lock()
	defer ew.mu.Unlock()
	if err := ew.enc.Encode(ev); err != nil {
		return fmt.Errorf("client: write event: %w", err)
	}
	return nil
}

// Flush drains buffered events to the underlying writer.
func (ew *EventWriter) Flush() error {
	ew.mu.Lock()
	defer ew.mu.Unlock()
	return ew.buf.Flush()
}

// EventSink receives the transfer engine's per-block records;
// *EventWriter is the JSONL implementation. Vector runs write from
// several stream workers at once, so a sink must be safe for concurrent
// use.
type EventSink interface {
	Write(BlockEvent) error
}

// SetEvents installs a sink that receives one BlockEvent per block handed
// off by Run, RunPipelined or RunVector; nil disables emission. A failed
// event write aborts the run — a trace with silent holes would poison any
// offline analysis built on it.
func (c *Client) SetEvents(sink EventSink) { c.events = sink }

// ReadEvents parses a JSONL event stream back, for tests and offline
// tooling. It fails on the first malformed line.
func ReadEvents(r io.Reader) ([]BlockEvent, error) {
	var evs []BlockEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev BlockEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("client: events line %d: %w", line, err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("client: read events: %w", err)
	}
	return evs, nil
}
