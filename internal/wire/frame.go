package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Block framing. Every block that crosses a tier travels as one data
// frame: a fixed-size header carrying its metadata (tuple count, done
// flag, priced delay, sequence number, the gateway's hop) and the encoded
// payload behind it. A pull response's body is one frame; the push
// transport multiplexes many onto one long-lived chunked response. The
// payload is the codec's bytes, the same on both transports — codecs, the
// encoded-block cache, and the seq/replay protocol are shared; only the
// number of frames per response differs.

// Frame types.
const (
	// FrameData carries one encoded block; the payload decodes with the
	// session's codec.
	FrameData byte = 0x01
	// FrameError terminates the stream abnormally; the payload is a
	// UTF-8 message. The client treats it like a failed pull attempt:
	// the session state (committed cursor, seq) is untouched and the
	// usual resume/failover machinery takes over.
	FrameError byte = 0x02
)

// Frame flag bits.
const (
	frameFlagDone   byte = 1 << 0
	frameFlagReplay byte = 1 << 1
)

// frameMagic guards against reading a body that is no frame (an HTML
// error page, a peer of another framing — the 32-byte WSF1 header has no
// gateway hop) as one.
var frameMagic = [4]byte{'W', 'S', 'F', '2'}

// FrameHeaderLen is the fixed encoded header size: magic(4) type(1)
// flags(1) pad(2) seq(8) delay(8) tuples(4) paylen(4) failovers(4)
// backend(4).
const FrameHeaderLen = 40

// MaxFramePayload caps a single frame's payload absent explicit
// configuration; a header announcing more is refused, so a corrupted
// length prefix cannot force an unbounded allocation.
const MaxFramePayload = 64 << 20

// ErrFrameTooLarge is a frame header announcing a payload past the
// reader's cap.
var ErrFrameTooLarge = errors.New("wire: frame payload too large")

// Frame is one unit of the push stream.
type Frame struct {
	Type    byte
	Done    bool    // last frame of the result set (FrameData only)
	Replay  bool    // served from the replay buffer after a reconnect
	Seq     uint64  // block sequence number, same numbering as pull seq
	DelayMS float64 // priced transfer delay for the block (cost model)
	Tuples  uint32  // decoded row count of the payload
	// Failovers and Backend are the gateway's hop: the session's
	// cumulative transparent failovers, and the backend that served the
	// block, numbered from 1 in the gateway's backend order. A backend
	// writes 0 for both.
	Failovers uint32
	Backend   uint32
	Payload   []byte // encoded block (FrameData) or message (FrameError)
}

// WriteFrame encodes f to w. It performs exactly two writes (header,
// payload); callers that need atomic flush boundaries should wrap w in
// a bufio.Writer and flush after each frame.
func WriteFrame(w io.Writer, f Frame) error {
	if f.Type != FrameData && f.Type != FrameError {
		return fmt.Errorf("wire: bad frame type 0x%02x", f.Type)
	}
	if len(f.Payload) > MaxFramePayload {
		return fmt.Errorf("wire: frame payload %d bytes exceeds limit %d", len(f.Payload), MaxFramePayload)
	}
	var hdr [FrameHeaderLen]byte
	copy(hdr[0:4], frameMagic[:])
	hdr[4] = f.Type
	var flags byte
	if f.Done {
		flags |= frameFlagDone
	}
	if f.Replay {
		flags |= frameFlagReplay
	}
	hdr[5] = flags
	binary.BigEndian.PutUint64(hdr[8:16], f.Seq)
	binary.BigEndian.PutUint64(hdr[16:24], math.Float64bits(f.DelayMS))
	binary.BigEndian.PutUint32(hdr[24:28], f.Tuples)
	binary.BigEndian.PutUint32(hdr[28:32], uint32(len(f.Payload)))
	binary.BigEndian.PutUint32(hdr[32:36], f.Failovers)
	binary.BigEndian.PutUint32(hdr[36:40], f.Backend)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame decodes the next frame from r. maxPayload bounds the
// payload allocation (0 means MaxFramePayload); buf, if non-nil, is
// reused for the header and then the payload when they fit, so a reader
// that recycles it allocates nothing per frame. The returned Frame's
// Payload aliases the (possibly grown) buffer, which is also returned for
// the caller to recycle into the next call.
//
// A clean end of stream at a frame boundary returns io.EOF; a stream
// that dies mid-frame returns io.ErrUnexpectedEOF. Any header
// corruption returns ReadFrameHeader's error.
func ReadFrame(r io.Reader, maxPayload int, buf []byte) (Frame, []byte, error) {
	if cap(buf) < FrameHeaderLen {
		buf = make([]byte, FrameHeaderLen)
	}
	f, n, err := ReadFrameHeader(r, (*[FrameHeaderLen]byte)(buf[:FrameHeaderLen]), maxPayload)
	if err != nil {
		return Frame{}, buf, err
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, buf, err
	}
	f.Payload = buf
	return f, buf, nil
}

// ReadFrameHeader reads the next frame's header from r into hdr — the
// caller's, so that a reader that keeps one allocates nothing per frame —
// and decodes it (ParseFrameHeader). The payload, n bytes, is left on r.
// A clean end of stream before the header returns io.EOF, one inside it
// io.ErrUnexpectedEOF.
func ReadFrameHeader(r io.Reader, hdr *[FrameHeaderLen]byte, maxPayload int) (f Frame, n int, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, 0, err
	}
	return ParseFrameHeader(hdr[:], maxPayload)
}

// ParseFrameHeader decodes the frame header at the start of b and returns
// it, without its payload, and the payload's length. maxPayload bounds
// that length (0 means MaxFramePayload). A short b, a bad magic, type,
// flags, padding or delay, or a length past the cap is a descriptive
// error, never a panic.
func ParseFrameHeader(b []byte, maxPayload int) (f Frame, n int, err error) {
	if maxPayload <= 0 || maxPayload > MaxFramePayload {
		maxPayload = MaxFramePayload
	}
	if len(b) < FrameHeaderLen {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	hdr := b[:FrameHeaderLen]
	if [4]byte(hdr[0:4]) != frameMagic {
		return Frame{}, 0, fmt.Errorf("wire: bad frame magic %q", hdr[0:4])
	}
	f.Type = hdr[4]
	if f.Type != FrameData && f.Type != FrameError {
		return Frame{}, 0, fmt.Errorf("wire: bad frame type 0x%02x", f.Type)
	}
	flags := hdr[5]
	if flags&^(frameFlagDone|frameFlagReplay) != 0 {
		return Frame{}, 0, fmt.Errorf("wire: bad frame flags 0x%02x", flags)
	}
	f.Done = flags&frameFlagDone != 0
	f.Replay = flags&frameFlagReplay != 0
	if hdr[6] != 0 || hdr[7] != 0 {
		return Frame{}, 0, fmt.Errorf("wire: bad frame padding")
	}
	f.Seq = binary.BigEndian.Uint64(hdr[8:16])
	f.DelayMS = math.Float64frombits(binary.BigEndian.Uint64(hdr[16:24]))
	if math.IsNaN(f.DelayMS) || math.IsInf(f.DelayMS, 0) || f.DelayMS < 0 {
		return Frame{}, 0, fmt.Errorf("wire: bad frame delay %v", f.DelayMS)
	}
	f.Tuples = binary.BigEndian.Uint32(hdr[24:28])
	paylen := binary.BigEndian.Uint32(hdr[28:32])
	if int64(paylen) > int64(maxPayload) {
		return Frame{}, 0, fmt.Errorf("%w: %d bytes exceeds limit %d", ErrFrameTooLarge, paylen, maxPayload)
	}
	f.Failovers = binary.BigEndian.Uint32(hdr[32:36])
	f.Backend = binary.BigEndian.Uint32(hdr[36:40])
	return f, int(paylen), nil
}
