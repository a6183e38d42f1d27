package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"wsopt/internal/minidb"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// cannedPush answers the push protocol from memory: a session open, a
// stream open whose body frames the same encoded block forever, seq
// after seq, and 204s for credit grants and the closing DELETE. Nothing of its own is
// allocated per frame, so a pushed block through it costs what the
// client's stream reader costs.
type cannedPush struct {
	frame []byte // one encoded data frame; Read rewrites its seq
	off   int
	seq   uint64
	cols  string
}

func newCannedPush(tb testing.TB, schema minidb.Schema, batch []minidb.Row) *cannedPush {
	tb.Helper()
	payload, err := (wire.Binary{}).AppendBlock(nil, schema, batch)
	if err != nil {
		tb.Fatal(err)
	}
	var frame bytes.Buffer
	if err := wire.WriteFrame(&frame, service.BlockMeta{Tuples: len(batch)}.Frame(payload)); err != nil {
		tb.Fatal(err)
	}
	names := make([]string, len(schema))
	for i, c := range schema {
		names[i] = `"` + c.Name + `"`
	}
	return &cannedPush{frame: frame.Bytes(), off: frame.Len(), cols: "[" + strings.Join(names, ",") + "]"}
}

// Read serves the stream body: frame after frame, each with the next seq.
func (p *cannedPush) Read(b []byte) (int, error) {
	if p.off == len(p.frame) {
		p.seq++
		binary.BigEndian.PutUint64(p.frame[8:16], p.seq)
		p.off = 0
	}
	n := copy(b, p.frame[p.off:])
	p.off += n
	return n, nil
}

func (p *cannedPush) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	resp := &http.Response{StatusCode: http.StatusNoContent, Header: http.Header{}, Body: http.NoBody, Request: req}
	switch {
	case strings.HasSuffix(req.URL.Path, "/sessions"):
		resp.StatusCode = http.StatusCreated
		resp.Body = io.NopCloser(strings.NewReader(`{"session":"s0000002a","columns":` + p.cols + `}`))
	case strings.HasSuffix(req.URL.Path, "/stream"):
		resp.StatusCode, resp.Body = http.StatusOK, io.NopCloser(p)
		resp.Header.Set(service.HeaderPushWindow, "1024")
		resp.Header.Set(service.HeaderPushWindowBytes, "1073741824")
		resp.Header.Set(service.HeaderSessionColumns, p.cols)
	}
	return resp, nil
}

// framedAllocBudget is what one steady-state pushed block may allocate on
// the client, its share of the credit grants included: 6 measured,
// wire.ReadFrame reading the header into the buffer the stream recycles
// for payloads. A reader wrapped around each frame's payload, to be
// copied into the block's scratch, made it 8.
const framedAllocBudget = 6

// TestFramedBlockAllocGate gates the client's own cost of a pushed block
// (run without the race detector: `scripts/verify.sh allocgate`), on
// push-rtt's frame, 256 rows of CUSTOMER: a few allocations, and fewer
// bytes than the payload. The frame's buffer becomes the block's
// (wire.ViewPayload): the stream reads its next frame into the buffer the
// block's scratch held, so no per-frame reader is made and the block is
// not copied again.
func TestFramedBlockAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state timing")
	}
	schema, batch := customerBlock(t, 256)
	push := newCannedPush(t, schema, batch)
	c, err := New("http://canned.invalid", wire.Binary{}, &http.Client{Transport: push})
	if err != nil {
		t.Fatal(err)
	}
	c.SetPush(PushConfig{Enabled: true})
	ctx := context.Background()
	sess, err := c.OpenSession(ctx, Query{Table: "customer"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)
	var payload int64
	next := func() {
		blk, err := sess.Next(ctx, len(batch))
		if err != nil || blk.Tuples != len(batch) {
			t.Fatalf("pushed block: %v, %v", blk, err)
		}
		payload = blk.Bytes
	}
	for i := 0; i < 80; i++ { // size the buffers, warm the pool
		next()
	}
	allocs := testing.AllocsPerRun(200, next)
	t.Logf("%.1f allocs per pushed block (budget %d)", allocs, framedAllocBudget)
	if allocs > framedAllocBudget {
		t.Fatalf("a steady-state pushed block allocates %.1f times, budget %d", allocs, framedAllocBudget)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		next()
	}
	runtime.ReadMemStats(&after)
	perBlock := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f B allocated per pushed block of %d B, rows unread", perBlock, payload)
	if perBlock >= float64(payload) {
		t.Fatalf("a pushed block whose rows are not read allocates %.0f B, its payload is %d B", perBlock, payload)
	}
}
