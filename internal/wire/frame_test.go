package wire

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameData, Seq: 1, Tuples: 3, DelayMS: 12.5, Payload: []byte("payload-one")},
		{Type: FrameData, Seq: 2, Tuples: 0, Done: true, Payload: nil},
		{Type: FrameData, Seq: 7, Tuples: 9, Replay: true, DelayMS: 0.25, Failovers: 2, Backend: 3, Payload: []byte{0, 1, 2, 3}},
		{Type: FrameError, Payload: []byte("session expired")},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	var scratch []byte
	for i, want := range frames {
		var got Frame
		var err error
		got, scratch, err = ReadFrame(&buf, 0, scratch)
		if err != nil {
			t.Fatalf("frame %d: read: %v", i, err)
		}
		if got.Type != want.Type || got.Done != want.Done || got.Replay != want.Replay ||
			got.Seq != want.Seq || got.Tuples != want.Tuples || got.DelayMS != want.DelayMS ||
			got.Failovers != want.Failovers || got.Backend != want.Backend {
			t.Fatalf("frame %d: header mismatch: got %+v want %+v", i, got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: payload %q != %q", i, got.Payload, want.Payload)
		}
	}
	if _, _, err := ReadFrame(&buf, 0, scratch); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestFrameReadErrors(t *testing.T) {
	encode := func(f Frame) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}
	good := encode(Frame{Type: FrameData, Seq: 3, Tuples: 2, Payload: []byte("abcdef")})

	t.Run("truncated header", func(t *testing.T) {
		_, _, err := ReadFrame(bytes.NewReader(good[:FrameHeaderLen-5]), 0, nil)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		_, _, err := ReadFrame(bytes.NewReader(good[:len(good)-2]), 0, nil)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if _, _, err := ReadFrame(bytes.NewReader(bad), 0, nil); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("err = %v, want bad magic", err)
		}
	})
	t.Run("bad type", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = 0x7f
		if _, _, err := ReadFrame(bytes.NewReader(bad), 0, nil); err == nil || !strings.Contains(err.Error(), "type") {
			t.Fatalf("err = %v, want bad type", err)
		}
	})
	t.Run("oversized payload", func(t *testing.T) {
		if _, _, err := ReadFrame(bytes.NewReader(good), 4, nil); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("err = %v, want payload limit", err)
		}
	})
	t.Run("write rejects oversized", func(t *testing.T) {
		if err := WriteFrame(io.Discard, Frame{Type: FrameData, Payload: make([]byte, MaxFramePayload+1)}); err == nil {
			t.Fatal("WriteFrame accepted an oversized payload")
		}
	})
}

// TestFrameBufferReuse pins the zero-alloc contract of the read path: a
// payload that fits the recycled buffer must not reallocate it.
func TestFrameBufferReuse(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: FrameData, Seq: 1, Payload: bytes.Repeat([]byte("x"), 128)}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, Frame{Type: FrameData, Seq: 2, Payload: []byte("small")}); err != nil {
		t.Fatal(err)
	}
	_, scratch, err := ReadFrame(&buf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	big := &scratch[:cap(scratch)][0]
	f2, scratch2, err := ReadFrame(&buf, 0, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &scratch2[:cap(scratch2)][0] != big {
		t.Fatal("small payload reallocated the recycled buffer")
	}
	if string(f2.Payload) != "small" {
		t.Fatalf("payload = %q", f2.Payload)
	}
}

// FuzzFrame hardens the frame reader the same way the codec fuzzers
// harden Decode: arbitrary bytes must produce either a valid frame that
// re-encodes to the identical prefix, or an error — never a panic, and
// never an allocation sized by a corrupted length prefix.
func FuzzFrame(f *testing.F) {
	seed := func(fr Frame) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(Frame{Type: FrameData, Seq: 1, Tuples: 10, DelayMS: 3.5, Payload: []byte("hello frames")})
	seed(Frame{Type: FrameData, Seq: 42, Done: true})
	seed(Frame{Type: FrameError, Payload: []byte("gone")})
	f.Add([]byte{})
	f.Add([]byte("WSF2"))
	f.Add(bytes.Repeat([]byte{0xff}, FrameHeaderLen+4))

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxPayload = 1 << 20
		fr, _, err := ReadFrame(bytes.NewReader(data), maxPayload, nil)
		if err != nil {
			return
		}
		if len(fr.Payload) > maxPayload {
			t.Fatalf("payload %d exceeds cap", len(fr.Payload))
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatalf("re-encode of a decoded frame failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("re-encode is not the input prefix")
		}
	})
}
