package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"wsopt/internal/minidb"
	"wsopt/internal/service"
	"wsopt/internal/tpch"
	"wsopt/internal/wire"
)

// cannedTransport answers the pull protocol from memory: a session open,
// then the same framed block for every /next. No socket, no server, and
// nothing of its own allocated per pull — the response, its header and
// its body reader are reused — so a pull through it costs what the
// client's own code (and the net/http client above the transport) costs.
type cannedTransport struct {
	block  []byte
	header http.Header
	resp   http.Response
	body   bytes.Reader
}

func newCannedTransport(tb testing.TB, codec wire.Codec, schema minidb.Schema, batch []minidb.Row) *cannedTransport {
	tb.Helper()
	block := blockFrame(tb, codec, service.BlockMeta{Tuples: len(batch)}, schema, batch)
	rt := &cannedTransport{block: block, header: http.Header{}}
	service.SetFrameHeaders(rt.header, len(block), false)
	return rt
}

// keyValueBlock is BenchmarkPull's block: n rows of a key and a ten-byte
// string, 14 B a row in binary.
func keyValueBlock(n int) (minidb.Schema, []minidb.Row) {
	schema := minidb.Schema{{Name: "k", Type: minidb.Int64}, {Name: "v", Type: minidb.String}}
	batch := make([]minidb.Row, n)
	for i := range batch {
		batch[i] = minidb.Row{minidb.NewInt(int64(i)), minidb.NewString(fmt.Sprintf("value-%04d", i))}
	}
	return schema, batch
}

// customerBlock is hot-binary-small's block: the first n rows of TPC-H
// CUSTOMER, about 185 B a row in binary.
func customerBlock(tb testing.TB, n int) (minidb.Schema, []minidb.Row) {
	tb.Helper()
	table, err := tpch.GenCustomer(minidb.NewCatalog(), float64(n+1)/tpch.CustomersPerSF)
	if err != nil {
		tb.Fatal(err)
	}
	rows, _, err := minidb.NextBlock(table.Scan(), n)
	if err != nil || len(rows) != n {
		tb.Fatalf("customer block of %d rows: %d rows, err %v", n, len(rows), err)
	}
	return table.Schema(), rows
}

func (rt *cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(req.URL.Path, "/next") {
		return &http.Response{
			StatusCode: http.StatusCreated,
			Header:     http.Header{},
			Body:       io.NopCloser(strings.NewReader(`{"session":"s0000002a","columns":["k","v"]}`)),
			Request:    req,
		}, nil
	}
	rt.body.Reset(rt.block)
	rt.resp = http.Response{
		StatusCode:    http.StatusOK,
		Header:        rt.header,
		Body:          io.NopCloser(&rt.body),
		ContentLength: int64(len(rt.block)),
		Request:       req,
	}
	return &rt.resp, nil
}

// cannedSession opens a session whose every pull is the binary block of
// schema and batch off a cannedTransport, and pulls a few blocks to warm
// the decode scratch, the deadline window and the schema cache. timeout
// is the http.Client's own: net/http spends a goroutine, a timer and 18
// allocations per request to honour one, which is why a pull is not sent
// through a client that has one (client.New's default does).
func cannedSession(tb testing.TB, timeout time.Duration, schema minidb.Schema, batch []minidb.Row) *Session {
	tb.Helper()
	c, err := New("http://canned.invalid", wire.Binary{}, &http.Client{Transport: newCannedTransport(tb, wire.Binary{}, schema, batch), Timeout: timeout})
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := c.OpenSession(context.Background(), Query{Table: "data"})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		if _, err := sess.Next(context.Background(), len(batch)); err != nil {
			tb.Fatal(err)
		}
	}
	return sess
}

// pullAllocBudget is what one steady-state pull of a 64-row binary block
// may allocate on the client, measured (go1.24 amd64): 17, the block's
// metadata read from its frame header into the session's own buffer. A
// pull that started a goroutine with a channel, copied the deadline
// window and parsed the base URL twice measured 35 on the same transport.
const pullAllocBudget = 17

// TestPullAllocGate gates the client's own per-block allocations (run
// without the race detector: `scripts/verify.sh allocgate`) — under the
// same budget whether or not the caller's http.Client carries a Timeout:
// a pull has one deadline, its context's, and the Timeout is folded into
// that instead of being honoured a second time by net/http. Counted in
// bytes, a pull of hot-binary-small's 64-row block whose rows nobody
// reads allocates less than its payload: the block is checked and
// indexed, and no arena — a copy of the payload — is taken until Rows
// is called. (BenchmarkPull's narrow block is no yardstick for bytes: its
// 908 B payload is less than net/http's own per-request plumbing.)
func TestPullAllocGate(t *testing.T) {
	kvSchema, kvRows := keyValueBlock(64)
	cSchema, cRows := customerBlock(t, 64)
	for _, timeout := range []time.Duration{0, 5 * time.Minute} {
		ctx := context.Background()
		sess := cannedSession(t, timeout, kvSchema, kvRows)
		allocs := testing.AllocsPerRun(200, func() {
			blk, err := sess.Next(ctx, 64)
			if err != nil || len(blk.Rows()) != 64 {
				t.Fatalf("pull: %v, %v", blk, err)
			}
		})
		t.Logf("http.Client.Timeout %v: %.0f allocs per pull (budget %d)", timeout, allocs, pullAllocBudget)
		if allocs > pullAllocBudget {
			t.Fatalf("http.Client.Timeout %v: a steady-state pull allocates %.0f times, budget %d", timeout, allocs, pullAllocBudget)
		}

		// Counted by hand: testing.AllocsPerRun reports no bytes.
		sess = cannedSession(t, timeout, cSchema, cRows)
		const runs = 200
		var payload int64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			blk, err := sess.Next(ctx, 64)
			if err != nil || blk.Tuples != 64 {
				t.Fatalf("pull: %v, %v", blk, err)
			}
			payload = blk.Bytes
		}
		runtime.ReadMemStats(&after)
		perPull := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("http.Client.Timeout %v: %.0f B allocated per pull of a %d B customer block, rows unread", timeout, perPull, payload)
		if perPull >= float64(payload) {
			t.Fatalf("http.Client.Timeout %v: a pull whose rows are not read allocates %.0f B, its payload is %d B — the client copies a block nobody reads", timeout, perPull, payload)
		}
	}
}

// BenchmarkPull is the client's own cost of one block: Session.Next of a
// 64-row binary block through a cannedTransport. Run it with -cpu 1,2 —
// whatever a pull hands to another goroutine costs most when there is a
// second processor to take it (DESIGN.md §8 has the table).
func BenchmarkPull(b *testing.B) {
	schema, batch := keyValueBlock(64)
	sess := cannedSession(b, 0, schema, batch)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Next(ctx, 64); err != nil {
			b.Fatal(err)
		}
	}
}
