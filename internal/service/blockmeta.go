package service

import (
	"net/http"
	"strconv"

	"wsopt/internal/wire"
)

// Block-transfer headers. A block's metadata travels in its frame's
// header (BlockMeta.Frame), on /next as on /stream; what is left here is
// the one header a /next response still carries for readers that do not
// parse frames, the ingest ack's, and the stream open's.
const (
	// HeaderBlockDone is "true" on the final /next block of a result set,
	// and absent on every other.
	HeaderBlockDone = "X-Block-Done"
	// HeaderBlockTuples, HeaderInjectedDelayMS and HeaderBlockReplay are
	// the ingest ack's (a 204 has no body to frame): the tuples the
	// uploaded block loaded, the simulated (model) latency injected for
	// it in milliseconds, before scaling, and "true" when the block was a
	// retry of one already applied.
	HeaderBlockTuples     = "X-Block-Tuples"
	HeaderInjectedDelayMS = "X-Injected-Delay-Ms"
	HeaderBlockReplay     = "X-Block-Replay"
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
	// HeaderGatewayTransparentFailover is "true" on session-create
	// responses from a tier that replicates session state and handles
	// backend failover itself (cmd/wsgate). A capable client must then NOT
	// fail over endpoints on its own, and must not surface gateway
	// failovers as a second disturbance to its controller. It lives here,
	// next to the block headers, so the client and the gateway share one
	// definition without an import cycle.
	HeaderGatewayTransparentFailover = "X-WSGate-Transparent-Failover"
)

// frameContentType is the Content-Type of every framed body, /next and
// /stream alike, and headerTrue a "true" header value: shared slices, so
// that setting one allocates nothing (net/http only reads them).
var (
	frameContentType = []string{"application/octet-stream"}
	headerTrue       = []string{"true"}
)

// SetFrameHeaders sets the headers of a /next 200 whose body is one frame
// of n bytes, its header included: the framing's Content-Type, the
// length — known before the first byte, so that a block larger than
// net/http's buffer does not leave chunked and the next hop can size its
// buffer once — no Date, and X-Block-Done on the final block. Both tiers
// that answer /next call it.
func SetFrameHeaders(h http.Header, n int, done bool) {
	h["Content-Type"] = frameContentType
	h["Content-Length"] = []string{strconv.Itoa(n)}
	h["Date"] = nil // net/http writes none
	if done {
		h[HeaderBlockDone] = headerTrue
	}
}

// MarkTransparentFailover stamps a session-create response of a tier that
// fails sessions over itself (HeaderGatewayTransparentFailover).
func MarkTransparentFailover(h http.Header) {
	h.Set(HeaderGatewayTransparentFailover, "true")
}

// BlockMeta is what travels beside a block's bytes: the header of the
// frame that carries them, on either transport. Every tier that writes or
// reads a block goes through this one type (the service, the gateway on
// both of its sides, the client on both transports), so a field added
// here exists on every path.
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
	// the block, numbered from 1 in the gateway's backend order
	// (gateway.Stats().Backends[Backend-1]), and the session's cumulative
	// transparent failovers. A backend leaves both 0.
	Backend   int
	Failovers int
}

// Frame is m as the header of a data frame carrying payload.
func (m BlockMeta) Frame(payload []byte) wire.Frame {
	return wire.Frame{Type: wire.FrameData, Seq: m.Seq, Tuples: uint32(m.Tuples), Done: m.Done, Replay: m.Replayed, DelayMS: m.DelayMS,
		Failovers: uint32(m.Failovers), Backend: uint32(m.Backend), Payload: payload}
}

// FrameMeta reads a data frame's header back.
func FrameMeta(f wire.Frame) BlockMeta {
	return BlockMeta{Seq: f.Seq, Tuples: int(f.Tuples), Done: f.Done, Replayed: f.Replay, DelayMS: f.DelayMS,
		Backend: int(f.Backend), Failovers: int(f.Failovers)}
}
