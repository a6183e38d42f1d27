package service

import (
	"net/http"
	"strconv"

	"wsopt/internal/wire"
)

// Block-transfer response headers.
const (
	// HeaderBlockTuples reports how many tuples the block carries.
	HeaderBlockTuples = "X-Block-Tuples"
	// HeaderBlockDone is "true" on the final block of a result set.
	HeaderBlockDone = "X-Block-Done"
	// HeaderInjectedDelayMS reports the simulated (model) latency that
	// was injected for this block, in milliseconds, before scaling.
	HeaderInjectedDelayMS = "X-Injected-Delay-Ms"
	// HeaderBlockSeq echoes the sequence number the block was served
	// under (absent for legacy pulls that sent no seq).
	HeaderBlockSeq = "X-Block-Seq"
	// HeaderBlockReplay is "true" when the block was served from the
	// replay buffer rather than by advancing the iterator.
	HeaderBlockReplay = "X-Block-Replay"
	// HeaderPushWindow, on a stream open's 200, is the largest credit
	// window the server applies on this stream: a larger `window`, on the
	// open or on a credit, is cut to it, so a client bounds what it asks
	// for and what it acks against by this number. A server that sends
	// none predates the header; the client then assumes
	// DefaultPushMaxWindow.
	HeaderPushWindow = "X-Push-Window"
	// HeaderPushWindowBytes, beside it, is the stream's byte budget: the
	// producer waits while its unacked frames pin that much, so a client
	// acks once the frames it has read and not acked reach half of it. A
	// server that sends none bounds the window in frames only.
	HeaderPushWindowBytes = "X-Push-Window-Bytes"
	// HeaderSessionColumns, beside it, is the result's column names as a
	// JSON array: what POST /sessions answers in its 201 body, for a client
	// whose stream open was what created the session.
	HeaderSessionColumns = "X-Session-Columns"
)

// Gateway-tier headers, spoken by cmd/wsgate and understood by the
// client. They live here (next to the block headers) so the client and
// the gateway share one definition without an import cycle.
const (
	// HeaderGatewayTransparentFailover is "true" on session-create
	// responses from a tier that replicates session state and handles
	// backend failover itself. A capable client must then NOT fail over
	// endpoints on its own, and must not surface gateway failovers as a
	// second disturbance to its controller.
	HeaderGatewayTransparentFailover = "X-WSGate-Transparent-Failover"
	// HeaderGatewayFailovers carries the session's cumulative transparent
	// failover count on every block response, so the client can surface
	// each backend death to its controller exactly once.
	HeaderGatewayFailovers = "X-WSGate-Failovers"
	// HeaderGatewayBackend names the backend that actually served the
	// block, for traces and tests.
	HeaderGatewayBackend = "X-WSGate-Backend"
)

// BlockMeta is what travels beside a block's bytes: response headers in
// the /next framing, the frame header in the /stream framing. Every tier
// that writes or reads a block goes through this one type (the service,
// the gateway on both of its sides, the client on both transports), so a
// field added here exists on every path.
type BlockMeta struct {
	// Seq is the block's number; 0 is a block served to a legacy pull that
	// named none (nothing is echoed).
	Seq    uint64
	Tuples int
	Done   bool
	// Replayed marks bytes served from the retained tail, not fresh.
	Replayed bool
	// DelayMS is the priced (model) delay, before time scaling.
	DelayMS float64
	// Backend and Failovers are the gateway's hop: the backend that served
	// the block and the session's cumulative transparent failovers. A
	// backend leaves Backend empty and neither header is written.
	Backend   string
	Failovers int
}

// WriteHeader stamps m on a block response.
func (m BlockMeta) WriteHeader(h http.Header) {
	h.Set(HeaderBlockTuples, strconv.Itoa(m.Tuples))
	h.Set(HeaderBlockDone, strconv.FormatBool(m.Done))
	delay := "0.000" // what FormatFloat writes for an unpriced block, without its allocation
	if m.DelayMS != 0 {
		delay = strconv.FormatFloat(m.DelayMS, 'f', 3, 64)
	}
	h.Set(HeaderInjectedDelayMS, delay)
	if m.Seq != 0 {
		h.Set(HeaderBlockSeq, strconv.FormatUint(m.Seq, 10))
	}
	if m.Replayed {
		h.Set(HeaderBlockReplay, "true")
	}
	if m.Backend != "" {
		h.Set(HeaderGatewayBackend, m.Backend)
		h.Set(HeaderGatewayFailovers, strconv.Itoa(m.Failovers))
	}
}

// ParseBlockMeta reads a block response's headers back. Absent or
// malformed fields read as zero; announced reports whether the tuple
// count was actually on the wire, so a reader can check it against what
// it decoded.
func ParseBlockMeta(h http.Header) (m BlockMeta, announced bool) {
	tuples, err := strconv.Atoi(h.Get(HeaderBlockTuples))
	m.Tuples, announced = tuples, err == nil
	m.Done, _ = strconv.ParseBool(h.Get(HeaderBlockDone))
	m.DelayMS, _ = strconv.ParseFloat(h.Get(HeaderInjectedDelayMS), 64)
	m.Seq, _ = strconv.ParseUint(h.Get(HeaderBlockSeq), 10, 64)
	m.Replayed, _ = strconv.ParseBool(h.Get(HeaderBlockReplay))
	m.Backend = h.Get(HeaderGatewayBackend)
	m.Failovers, _ = strconv.Atoi(h.Get(HeaderGatewayFailovers))
	return m, announced
}

// Frame is m as the header of a stream data frame carrying payload. The
// gateway fields have no frame encoding: wsgate does not proxy streams.
func (m BlockMeta) Frame(payload []byte) wire.Frame {
	return wire.Frame{Type: wire.FrameData, Seq: m.Seq, Tuples: uint32(m.Tuples), Done: m.Done, Replay: m.Replayed, DelayMS: m.DelayMS, Payload: payload}
}

// FrameMeta reads a data frame's header back.
func FrameMeta(f wire.Frame) BlockMeta {
	return BlockMeta{Seq: f.Seq, Tuples: int(f.Tuples), Done: f.Done, Replayed: f.Replay, DelayMS: f.DelayMS}
}
