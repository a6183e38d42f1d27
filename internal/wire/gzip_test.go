package wire

import (
	"bytes"
	"compress/gzip"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

func gzipCodecs() []Codec { return []Codec{Gzip(XML{}), Gzip(JSON{}), Gzip(Binary{})} }

// TestGzipDecodeVerifiesTrailer: a +gzip block is only good if the whole
// gzip stream is — the CRC-32 and ISIZE that follow the deflate data,
// and nothing after the inner document. Text decoders that stop at the
// end of their document used to leave all of that unread.
func TestGzipDecodeVerifiesTrailer(t *testing.T) {
	schema, rows := sampleSchema(), sampleRows(50, rand.New(rand.NewSource(4)))
	for _, c := range gzipCodecs() {
		t.Run(c.Name(), func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.Encode(&buf, schema, rows); err != nil {
				t.Fatal(err)
			}
			good := buf.Bytes()
			decode := func(b []byte) error {
				if _, _, err := c.Decode(bytes.NewReader(b)); err != nil {
					return err
				}
				_, _, err := DecodeBlock(c, bytes.NewReader(b), new(Scratch))
				return err
			}
			if err := decode(good); err != nil {
				t.Fatalf("intact block: %v", err)
			}
			flip := func(fromEnd int) []byte {
				b := append([]byte(nil), good...)
				b[len(b)-fromEnd] ^= 0x01
				return b
			}
			if err := decode(flip(8)); !errors.Is(err, gzip.ErrChecksum) {
				t.Errorf("flipped CRC-32 byte: err = %v, want gzip.ErrChecksum", err)
			}
			if err := decode(flip(1)); !errors.Is(err, gzip.ErrChecksum) {
				t.Errorf("flipped ISIZE byte: err = %v, want gzip.ErrChecksum", err)
			}
			if err := decode(append(append([]byte(nil), good...), "garbage"...)); err == nil {
				t.Error("garbage after the gzip stream accepted")
			}

			// Garbage inside the stream, after the inner document.
			var inner, packed bytes.Buffer
			if err := c.(Gzipped).Inner.Encode(&inner, schema, rows); err != nil {
				t.Fatal(err)
			}
			inner.WriteString("garbage")
			zw := gzip.NewWriter(&packed)
			zw.Write(inner.Bytes())
			zw.Close()
			if err := decode(packed.Bytes()); err == nil {
				t.Error("garbage after the inner document accepted")
			}
		})
	}
}

// gzipOf compresses n copies of b without holding them in memory.
func gzipOf(t *testing.T, b byte, n int) []byte {
	t.Helper()
	var packed bytes.Buffer
	zw := gzip.NewWriter(&packed)
	chunk := bytes.Repeat([]byte{b}, 64<<10)
	for n > 0 {
		m := min(n, len(chunk))
		if _, err := zw.Write(chunk[:m]); err != nil {
			t.Fatal(err)
		}
		n -= m
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return packed.Bytes()
}

// TestGzipDecodeCapsInflatedSize: the transports cap the compressed
// bytes of a block, which bounds nothing — a few dozen KiB of deflate
// inflate to more than MaxFramePayload. The in-memory decoders must be
// cut off at the cap with the typed error; a decoder that refuses the
// payload at its first byte never gets that far.
func TestGzipDecodeCapsInflatedSize(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("inflates 64 MiB per codec")
	}
	bomb := gzipOf(t, ' ', MaxFramePayload+1) // leading whitespace: every decoder keeps reading
	if len(bomb) > 128<<10 {
		t.Fatalf("bomb is %d bytes compressed", len(bomb))
	}
	for _, c := range gzipCodecs() {
		s := new(Scratch)
		if _, _, err := DecodeBlock(c, bytes.NewReader(bomb), s); !errors.Is(err, ErrInflatedTooLarge) {
			t.Errorf("%s: %d bytes inflating past the cap: err = %v, want ErrInflatedTooLarge", c.Name(), len(bomb), err)
		}
		if cap(s.raw) > 2*MaxFramePayload {
			t.Errorf("%s: scratch holds %d bytes after a refused block", c.Name(), cap(s.raw))
		}
	}

	// Exactly the cap is not past it: the error is the inner decoder's.
	atCap := gzipOf(t, ' ', MaxFramePayload)
	if _, _, err := Gzip(XML{}).Decode(bytes.NewReader(atCap)); err == nil || errors.Is(err, ErrInflatedTooLarge) {
		t.Errorf("payload of exactly the cap: err = %v, want a syntax error", err)
	}

	// Zeros are refused by the streaming JSON decoder at the first byte,
	// without inflating, let alone buffering, anything like the cap.
	zeros := gzipOf(t, 0, MaxFramePayload+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Gzip(JSON{}).Decode(bytes.NewReader(zeros))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("json+gzip: zeros accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > MaxFramePayload/8 {
		t.Errorf("json+gzip: refusing %d compressed bytes of zeros allocated %d bytes", len(zeros), got)
	}
}
