package replica

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"wsopt/internal/wire"
)

// The feed's wire format: one response is a batchHeader, the boot id,
// then Count records, each a recordHeader followed by its variable parts
// (session, codec, query, payload) in that order. Integers are
// big-endian and every variable part is length-prefixed — the
// discipline of wire's push frames — so a payload crosses the primary
// as one socket write from the buffer its block was served from, and
// lands on the follower as one read into the slice the Store keeps.
// Within a batch only the last commit of a session carries its payload
// (Log.Read's coalescing).

var feedMagic = [4]byte{'W', 'S', 'R', '1'}

// batchHeader and recordHeader are the fixed parts, laid out field by
// field by encoding/binary.
type batchHeader struct {
	Magic   [4]byte
	First   uint64 // oldest retained LSN (0 = empty log)
	Next    uint64 // LSN the primary assigns next
	Count   uint32
	BootLen uint16
}

type recordHeader struct {
	LSN                  uint64
	Op, Flags            uint8
	Seq                  uint64
	Committed            int64
	Tuples               uint32
	ShippedUnixNano      int64
	SessionLen, CodecLen uint16
	QueryLen, PayloadLen uint32
}

const (
	feedFlagDone    uint8 = 1 << 0
	feedFlagPayload uint8 = 1 << 1 // commits only; set exactly when PayloadLen > 0

	// A corrupted length prefix must not force an unbounded allocation:
	// a payload is capped like a push frame's (wire.MaxFramePayload), a
	// query like the create body it was read from.
	maxFeedQuery = 1 << 20
)

// feedBatch is one decoded feed response.
type feedBatch struct {
	// Boot is the primary log's boot id; a follower that sees it change
	// knows the primary restarted (its LSNs and session ids reset) and
	// must rewind its cursor and drop its standby state.
	Boot string
	// First is the oldest retained LSN; a follower whose cursor is below
	// it has missed records. Next minus the last record's LSN is how much
	// the follower still has to pull.
	First, Next uint64
	// Records are the shipped entries, in LSN order.
	Records []Record
}

// writeFeed encodes one batch to w. Headers go through a small buffer;
// a payload larger than it is written straight from the record's slice.
// The buffer's error is sticky, so only Flush's is checked.
func writeFeed(w io.Writer, b feedBatch) error {
	bw := bufio.NewWriter(w)
	_ = binary.Write(bw, binary.BigEndian, batchHeader{feedMagic, b.First, b.Next, uint32(len(b.Records)), uint16(len(b.Boot))})
	bw.WriteString(b.Boot)
	for i := range b.Records {
		r := &b.Records[i]
		if len(r.Session) > math.MaxUint16 || len(r.Codec) > math.MaxUint16 || len(r.Query) > maxFeedQuery || len(r.Payload) > wire.MaxFramePayload {
			return fmt.Errorf("replica: record %d does not fit the feed format", r.LSN)
		}
		var flags uint8
		if r.Done {
			flags |= feedFlagDone
		}
		if len(r.Payload) > 0 {
			flags |= feedFlagPayload
		}
		_ = binary.Write(bw, binary.BigEndian, recordHeader{r.LSN, uint8(r.Op), flags, r.Seq, r.Committed, uint32(r.Tuples),
			r.ShippedUnixNano, uint16(len(r.Session)), uint16(len(r.Codec)), uint32(len(r.Query)), uint32(len(r.Payload))})
		bw.WriteString(r.Session)
		bw.WriteString(r.Codec)
		bw.Write(r.Query)
		bw.Write(r.Payload)
	}
	return bw.Flush()
}

// readFeed decodes one batch from r. A stream that ends inside the
// batch returns io.ErrUnexpectedEOF; a corrupted header (bad magic,
// unknown op or flag, a payload on a record that is not a commit, an
// oversize length) returns a descriptive error before anything is
// allocated on its say-so. Each payload is read into a fresh slice of
// exactly its length, which the Store then owns.
func readFeed(r io.Reader) (feedBatch, error) {
	var bh batchHeader
	if err := readFixed(r, &bh); err != nil {
		return feedBatch{}, err
	}
	if bh.Magic != feedMagic {
		return feedBatch{}, fmt.Errorf("replica: bad feed magic %q", bh.Magic[:])
	}
	boot, err := readBytes(r, uint32(bh.BootLen))
	if err != nil {
		return feedBatch{}, err
	}
	b := feedBatch{Boot: string(boot), First: bh.First, Next: bh.Next}
	for i := uint32(0); i < bh.Count; i++ {
		var h recordHeader
		if err := readFixed(r, &h); err != nil {
			return b, err
		}
		op := Op(h.Op)
		switch {
		case op != OpCreate && op != OpCommit && op != OpClose:
			return b, fmt.Errorf("replica: feed record %d: bad op %d", h.LSN, h.Op)
		case h.Flags&^(feedFlagDone|feedFlagPayload) != 0:
			return b, fmt.Errorf("replica: feed record %d: bad flags 0x%02x", h.LSN, h.Flags)
		case h.Flags&feedFlagPayload != 0 && op != OpCommit:
			return b, fmt.Errorf("replica: feed record %d: payload on a %s record", h.LSN, op)
		case (h.Flags&feedFlagPayload != 0) != (h.PayloadLen > 0):
			return b, fmt.Errorf("replica: feed record %d: payload flag and length %d disagree", h.LSN, h.PayloadLen)
		case h.PayloadLen > wire.MaxFramePayload || h.QueryLen > maxFeedQuery:
			return b, fmt.Errorf("replica: feed record %d: payload %d or query %d bytes exceeds its limit", h.LSN, h.PayloadLen, h.QueryLen)
		}
		var parts [4][]byte // session, codec, query, payload
		for j, n := range [4]uint32{uint32(h.SessionLen), uint32(h.CodecLen), h.QueryLen, h.PayloadLen} {
			if parts[j], err = readBytes(r, n); err != nil {
				return b, err
			}
		}
		b.Records = append(b.Records, Record{
			LSN: h.LSN, Op: op, Session: string(parts[0]), Query: json.RawMessage(parts[2]),
			Seq: h.Seq, Committed: h.Committed, Tuples: int(h.Tuples), Done: h.Flags&feedFlagDone != 0,
			Codec: string(parts[1]), Payload: parts[3], ShippedUnixNano: h.ShippedUnixNano,
		})
	}
	return b, nil
}

// premature maps a clean end of stream to the error it is inside a batch.
func premature(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readFixed reads one fixed-size header.
func readFixed(r io.Reader, hdr any) error {
	return premature(binary.Read(r, binary.BigEndian, hdr))
}

// readBytes reads a variable part of n bytes; nil when n is 0.
func readBytes(r io.Reader, n uint32) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	p := make([]byte, n)
	_, err := io.ReadFull(r, p)
	return p, premature(err)
}

// FeedHandler serves the log as a pull-based HTTP feed:
//
//	GET /replication/feed?from=LSN&max=N
//
// answering with one batch in the format above. The handler never
// blocks: an empty batch tells the follower it is caught up and should
// poll again after its interval. Payloads are written from the buffers
// Read retained, outside the log's lock, and released when the write ends.
func FeedHandler(l *Log) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var from uint64
		if v := r.URL.Query().Get("from"); v != "" {
			f, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "from must be a non-negative integer", http.StatusBadRequest)
				return
			}
			from = f
		}
		max := 256
		if v := r.URL.Query().Get("max"); v != "" {
			m, err := strconv.Atoi(v)
			if err != nil || m < 1 {
				http.Error(w, "max must be a positive integer", http.StatusBadRequest)
				return
			}
			max = m
		}
		recs, first, next, release := l.Read(from, max)
		defer release()
		w.Header().Set("Content-Type", "application/octet-stream")
		// The follower sees a failed write as a short batch and pulls again.
		_ = writeFeed(w, feedBatch{Boot: l.Boot(), First: first, Next: next, Records: recs})
	}
}
