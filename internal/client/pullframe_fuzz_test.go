package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// bodyTransport answers a session open, then every /next with body under
// a declared Content-Length (-1: none declared, as a chunked body).
type bodyTransport struct {
	body     []byte
	declared int64
}

func (rt *bodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, "/next") {
		return &http.Response{StatusCode: http.StatusCreated, Header: http.Header{}, Request: req,
			Body: io.NopCloser(strings.NewReader(`{"session":"s0000002a","columns":["k","v"]}`))}, nil
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Request: req,
		Body: io.NopCloser(bytes.NewReader(rt.body)), ContentLength: rt.declared}, nil
}

// FuzzPullFrame feeds /next bodies to the pull path: a block comes back
// exactly when the body is one well-formed data frame, as long as the
// Content-Length it declares, whose payload decodes to the rows its
// header announces — with that header's metadata. Anything else — a
// short header; a bad magic, type, flags, padding or delay; a payload
// length the body or Content-Length disagrees with; trailing bytes; a
// tuple count the rows disagree with — is an error, never a panic.
func FuzzPullFrame(f *testing.F) {
	schema, rows := keyValueBlock(3)
	good := blockFrame(f, wire.Binary{}, service.BlockMeta{Seq: 1, Tuples: 3, DelayMS: 1.5}, schema, rows)
	n := int64(len(good))
	seeds := []struct {
		declared int64
		mutate   func([]byte) []byte
		ok       bool
	}{
		{n, func(b []byte) []byte { return b }, true},
		{-1, func(b []byte) []byte { return b }, true}, // undeclared length
		{20, func(b []byte) []byte { return b[:20] }, false},
		{n, func(b []byte) []byte { b[0] = 'X'; return b }, false},
		{n, func(b []byte) []byte { b[4] = wire.FrameError; return b }, false},
		{n, func(b []byte) []byte { b[4] = 0x7f; return b }, false},
		{n, func(b []byte) []byte { b[5] = 0x80; return b }, false},
		{n, func(b []byte) []byte { b[7] = 1; return b }, false},
		{n, func(b []byte) []byte { binary.BigEndian.PutUint64(b[16:24], math.Float64bits(math.NaN())); return b }, false},
		{n + 1, func(b []byte) []byte { return b }, false},
		{n - 1, func(b []byte) []byte { return b }, false},
		{-1, func(b []byte) []byte { return append(b, 0) }, false},
		{-1, func(b []byte) []byte { return b[:len(b)-2] }, false},
		{n, func(b []byte) []byte { binary.BigEndian.PutUint32(b[24:28], 4); return b }, false},
		{0, func([]byte) []byte { return nil }, false},
	}
	for i, sd := range seeds {
		body := sd.mutate(append([]byte(nil), good...))
		if _, ok := wellFormedFrame(body, sd.declared); ok != sd.ok {
			f.Fatalf("seed %d: well-formed = %v, want %v", i, ok, sd.ok)
		}
		f.Add(body, sd.declared)
	}

	rt := &bodyTransport{}
	c, err := New("http://canned.invalid", wire.Binary{}, &http.Client{Transport: rt})
	if err != nil {
		f.Fatal(err)
	}
	sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte, declared int64) {
		if declared < 0 {
			declared = -1
		}
		rt.body, rt.declared = body, declared
		ctx := context.Background()
		blk, err := sess.pullOnce(ctx, ctx, sess.url+"/next")

		fr, wellFormed := wellFormedFrame(body, declared)
		switch {
		case wellFormed && err != nil:
			t.Fatalf("a well-formed frame failed the pull: %v", err)
		case !wellFormed && err == nil:
			t.Fatalf("a %d-byte body declared as %d that is no well-formed frame made a block of %d tuples", len(body), declared, blk.Tuples)
		case err == nil && (blk.Tuples != int(fr.Tuples) || blk.Done != fr.Done || blk.Replayed != fr.Replay ||
			blk.InjectedMS != fr.DelayMS || blk.GatewayFailovers != int(fr.Failovers) || blk.Bytes != int64(len(fr.Payload))):
			t.Fatalf("block %+v does not carry its frame's header %+v", blk, fr)
		}
	})
}

// wellFormedFrame is FuzzPullFrame's oracle: whether body, declared as
// Content-Length (-1: undeclared), is one data frame whose binary
// payload holds the tuples its header announces; fr is that frame.
func wellFormedFrame(body []byte, declared int64) (fr wire.Frame, ok bool) {
	fr, n, err := wire.ParseFrameHeader(body, 0)
	if err != nil || fr.Type != wire.FrameData || len(body) != wire.FrameHeaderLen+n || declared >= 0 && declared != int64(len(body)) {
		return fr, false
	}
	fr.Payload = body[wire.FrameHeaderLen:]
	view, err := wire.ViewBlock(wire.Binary{}, bytes.NewReader(fr.Payload), nil)
	return fr, err == nil && view.Len() == int(fr.Tuples)
}
