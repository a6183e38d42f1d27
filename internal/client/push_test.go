package client

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"wsopt/internal/minidb"
	"wsopt/internal/netsim"
	"wsopt/internal/service"
	"wsopt/internal/wire"
)

// pushSchema is the schema of the upload tests' sink and source rows.
var pushSchema = minidb.Schema{
	{Name: "k", Type: minidb.Int64},
	{Name: "v", Type: minidb.String},
}

// pushRows returns n source rows (i, "v<i>") with unique keys.
func pushRows(n int) []minidb.Row {
	rows := make([]minidb.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, minidb.Row{minidb.NewInt(int64(i)), minidb.NewString(fmt.Sprintf("v%d", i))})
	}
	return rows
}

// pushStack builds a service with an empty sink table and a client.
func pushStack(t *testing.T) (*Client, *service.Server, *minidb.Catalog) {
	t.Helper()
	serverCat := minidb.NewCatalog()
	if _, err := serverCat.CreateTable("sink", pushSchema); err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Config{
		Catalog:   serverCat,
		CostModel: netsim.CostModel{LatencyMS: 5, PerTupleMS: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, wire.XML{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, srv, serverCat
}

// upload ships rows to table in blocks of size through one ingest
// session and returns the tuples the server confirmed at close and the
// retries the blocks took.
func upload(t *testing.T, c *Client, table string, rows []minidb.Row, size int) (tuples, retries int) {
	t.Helper()
	ctx := context.Background()
	sess, err := c.OpenPush(ctx, table)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(rows); off += size {
		blk, err := sess.Send(ctx, pushSchema, rows[off:min(off+size, len(rows))])
		if err != nil {
			t.Fatalf("send block at row %d: %v", off, err)
		}
		retries += blk.Attempts - 1
	}
	if tuples, err = sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return tuples, retries
}

func TestPushRoundTrip(t *testing.T) {
	c, srv, serverCat := pushStack(t)
	if n, _ := upload(t, c, "sink", pushRows(137), 10); n != 137 {
		t.Fatalf("server confirmed %d tuples, want 137", n)
	}
	sink, err := serverCat.Table("sink")
	if err != nil {
		t.Fatal(err)
	}
	if sink.RowCount() != 137 {
		t.Fatalf("server received %d rows, want 137", sink.RowCount())
	}
	// Stats counted the ingest.
	st := srv.Stats()
	if st.IngestsOpened != 1 || st.TuplesIngested != 137 {
		t.Fatalf("stats = %+v", st)
	}
	// Data round-tripped intact.
	it, _ := serverCat.Execute(minidb.Query{Table: "sink"})
	rows, err := minidb.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		if seen[r[0].I] {
			t.Fatalf("duplicate key %d on the server", r[0].I)
		}
		seen[r[0].I] = true
	}
	if len(seen) != 137 {
		t.Fatalf("distinct keys = %d", len(seen))
	}
}

func TestPushSessionLifecycle(t *testing.T) {
	c, _, _ := pushStack(t)
	ctx := context.Background()
	sess, err := c.OpenPush(ctx, "sink")
	if err != nil {
		t.Fatal(err)
	}
	blk, err := sess.Send(ctx, pushSchema, []minidb.Row{{minidb.NewInt(1), minidb.NewString("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if blk.Tuples != 1 || blk.InjectedMS <= 0 {
		t.Fatalf("block = %+v", blk)
	}
	n, err := sess.Close(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("server confirmed %d tuples, want 1", n)
	}
	// Closing again fails: the session is gone.
	if _, err := sess.Close(ctx); err == nil {
		t.Fatal("double close should fail for ingest sessions")
	}
}

func TestPushErrors(t *testing.T) {
	c, _, _ := pushStack(t)
	ctx := context.Background()
	if _, err := c.OpenPush(ctx, "ghost"); err == nil {
		t.Error("unknown table should fail")
	}
	sess, err := c.OpenPush(ctx, "sink")
	if err != nil {
		t.Fatal(err)
	}
	// Empty block rejected client-side.
	if _, err := sess.Send(ctx, nil, nil); err == nil {
		t.Error("empty block should fail")
	}
	// Wrong schema rejected server-side (422).
	wrong := minidb.Schema{{Name: "z", Type: minidb.Float64}}
	if _, err := sess.Send(ctx, wrong, []minidb.Row{{minidb.NewFloat(1)}}); err == nil {
		t.Error("schema mismatch should fail")
	}
}
