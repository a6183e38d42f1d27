package client

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"wsopt/internal/minidb"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// newDialCountingClient builds an http.Client whose transport counts
// every new TCP dial. If block pulls drain their bodies properly, a whole
// multi-block session — error responses included — rides one keep-alive
// connection, so the count stays at 1.
func newDialCountingClient(dials *atomic.Int64) *http.Client {
	base := &net.Dialer{Timeout: 10 * time.Second}
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				dials.Add(1)
				return base.DialContext(ctx, network, addr)
			},
			MaxIdleConnsPerHost: 4,
		},
	}
}

// TestPullsReuseKeepAliveConnection runs a full session — create, many
// block pulls, an error response with a body, and the delete — and
// asserts everything rode a single dialed connection. This is the
// regression gate for the drain-and-close fix: an undrained body (e.g.
// an error response read only partially) forces net/http to tear the
// connection down and dial again for the next pull.
func TestPullsReuseKeepAliveConnection(t *testing.T) {
	cat := minidb.NewCatalog()
	tbl, err := cat.CreateTable("data", minidb.Schema{
		{Name: "k", Type: minidb.Int64},
		{Name: "v", Type: minidb.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]minidb.Row, 0, 400)
	for i := 0; i < 400; i++ {
		rows = append(rows, minidb.Row{minidb.NewInt(int64(i)), minidb.NewString(fmt.Sprintf("value-%04d", i))})
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Config{Catalog: cat, Codec: wire.Binary{}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var dials atomic.Int64
	c, err := New(ts.URL, wire.Binary{}, newDialCountingClient(&dials))
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	sess, err := c.OpenSession(ctx, Query{Table: "data"})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for !sess.Done() {
		blk, err := sess.Next(ctx, 40)
		if err != nil {
			t.Fatal(err)
		}
		total += len(blk.Rows())
	}
	if total != 400 {
		t.Fatalf("pulled %d tuples, want 400", total)
	}

	// Provoke an error response with a body on the same connection: the
	// result set is exhausted, so another pull answers 410 with a text
	// body. httpFailure must drain it or the connection is lost.
	if _, err := sess.Next(ctx, 40); err == nil {
		t.Fatal("pull past the end should fail")
	}
	// More traffic after the error response must still reuse the
	// connection.
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}

	if got := dials.Load(); got != 1 {
		t.Fatalf("session used %d dials, want 1 (keep-alive broken: bodies not drained to EOF)", got)
	}
}

// TestHTTPFailureDrainsBody pins the httpFailure contract directly: a
// fat error body (larger than the 512-byte message cap) is fully
// consumed before the next request, keeping the connection pooled.
func TestHTTPFailureDrainsBody(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 64<<10)
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		w.Write(big)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var dials atomic.Int64
	hc := newDialCountingClient(&dials)
	for i := 0; i < 5; i++ {
		resp, err := hc.Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		err = httpFailure("probe", resp)
		resp.Body.Close()
		if err == nil {
			t.Fatal("httpFailure returned nil for a 400")
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("5 failed requests used %d dials, want 1", got)
	}
}
