package replica

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sampleFeed is a batch exercising every record kind and both flags.
func sampleFeed() feedBatch {
	return feedBatch{Boot: "0123456789abcdef", First: 7, Next: 12, Records: []Record{
		{LSN: 7, Op: OpCreate, Session: "s00000001", Query: json.RawMessage(`{"table":"t","offset":5}`), Committed: 5, ShippedUnixNano: 100},
		{LSN: 8, Op: OpCommit, Session: "s00000001", Seq: 1, Committed: 15, Tuples: 10, Codec: "binary", ShippedUnixNano: 101},
		{LSN: 9, Op: OpCommit, Session: "s00000001", Seq: 2, Committed: 20, Tuples: 5, Done: true, Codec: "binary", Payload: []byte("block-2"), ShippedUnixNano: 102},
		{LSN: 10, Op: OpClose, Session: "s00000001", ShippedUnixNano: 103},
	}}
}

func encodeFeed(t testing.TB, b feedBatch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFeed(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFeedEncodingRoundTrip(t *testing.T) {
	want := sampleFeed()
	got, err := readFeed(bytes.NewReader(encodeFeed(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	empty, err := readFeed(bytes.NewReader(encodeFeed(t, feedBatch{Boot: "b", Next: 1})))
	if err != nil || len(empty.Records) != 0 || empty.Boot != "b" || empty.Next != 1 {
		t.Fatalf("empty batch = %+v, %v", empty, err)
	}
}

// feedCorruptions derives the hostile inputs the decoder must refuse
// from a valid encoding of sampleFeed: name → bytes.
func feedCorruptions(valid []byte) map[string][]byte {
	patch := func(base []byte, off int, b ...byte) []byte {
		out := append([]byte(nil), base...)
		copy(out[off:], b)
		return out
	}
	s := sampleFeed()
	recLen := binary.Size(recordHeader{})
	rec0 := binary.Size(batchHeader{}) + len(s.Boot)                            // the create
	rec1 := rec0 + recLen + len(s.Records[0].Session) + len(s.Records[0].Query) // the coalesced commit
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	return map[string][]byte{
		"truncated record header":    valid[:rec0+10],
		"truncated payload":          valid[:len(valid)-recLen-len(s.Records[3].Session)-3],
		"bad magic":                  patch(valid, 0, 'W', 'S', 'F', '1'),
		"oversize record count":      patch(valid, 20, huge...),
		"unknown op":                 patch(valid, rec0+8, 9),
		"unknown flag":               patch(valid, rec0+9, 0x80),
		"payload flag on a create":   patch(valid, rec0+9, feedFlagPayload),
		"payload bytes without flag": patch(valid, rec1+46, 0, 0, 0, 1),
		"payload flag without bytes": patch(valid, rec1+9, feedFlagPayload),
		"oversize payload length":    patch(patch(valid, rec1+9, feedFlagPayload), rec1+46, huge...),
		"oversize query length":      patch(valid, rec0+42, huge...),
	}
}

func TestReadFeedRejectsCorruptInput(t *testing.T) {
	for name, data := range feedCorruptions(encodeFeed(t, sampleFeed())) {
		_, err := readFeed(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if strings.HasPrefix(name, "truncated") && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want io.ErrUnexpectedEOF", name, err)
		}
	}
}

// FuzzFeed hardens the feed decoder like FuzzFrame hardens the frame
// reader: arbitrary bytes yield either an error or a batch that obeys
// the format's rules and re-encodes to exactly the bytes consumed —
// never a panic.
func FuzzFeed(f *testing.F) {
	valid := encodeFeed(f, sampleFeed())
	f.Add(valid)
	f.Add(encodeFeed(f, feedBatch{Boot: "b", Next: 1}))
	f.Add([]byte{})
	f.Add([]byte("WSR1"))
	for _, data := range feedCorruptions(valid) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := readFeed(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, r := range b.Records {
			if r.Payload != nil && r.Op != OpCommit {
				t.Fatalf("decoded a payload on a %s record", r.Op)
			}
		}
		out := encodeFeed(t, b)
		if len(out) > len(data) || !bytes.Equal(out, data[:len(out)]) {
			t.Fatalf("re-encoding differs from the %d bytes consumed", len(out))
		}
	})
}

// TestCoalescedFeedEquivalentToRawApply is the coalescing invariant as a
// property: random create/commit/close histories over several sessions,
// appended in random slices and pulled through the real framed feed in
// random batch sizes, leave the follower Store — after EVERY batch, as a
// Get between batches sees it — field for field what applying the same
// records raw, one by one, produces.
func TestCoalescedFeedEquivalentToRawApply(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLog(4096)
		srv := httptest.NewServer(FeedHandler(l))
		clock := func() time.Time { return time.Unix(1000, 0) }
		got, ref := NewStore(0), NewStore(0)
		got.setClock(clock)
		ref.setClock(clock)
		p := &Puller{URL: srv.URL, Store: got}

		sessions := []string{"s1", "s2", "s3", "s4"}
		open := map[string]uint64{} // live session → last seq
		var history []Record
		for len(history) < 400 {
			id := sessions[rng.Intn(len(sessions))]
			rec := Record{Session: id, ShippedUnixNano: int64(len(history) + 1)}
			seq, live := open[id]
			switch {
			case !live:
				rec.Op, rec.Query, rec.Committed = OpCreate, json.RawMessage(fmt.Sprintf(`{"n":%d}`, len(history))), int64(rng.Intn(50))
				open[id] = 0
			case rng.Intn(12) == 0:
				rec.Op = OpClose
				delete(open, id)
			default:
				payload := make([]byte, 1+rng.Intn(64))
				rng.Read(payload)
				rec.Op, rec.Seq, rec.Committed, rec.Tuples, rec.Codec, rec.Payload = OpCommit, seq+1, int64(10*(seq+1)), 10, "binary", payload
				rec.Done = rng.Intn(20) == 0
				open[id] = seq + 1
			}
			history = append(history, rec)
		}

		appended, applied := 0, 0
		for applied < len(history) {
			for n := 1 + rng.Intn(40); n > 0 && appended < len(history); n-- {
				l.Append(history[appended])
				appended++
			}
			p.Batch = 1 + rng.Intn(30)
			if _, err := p.PollOnce(context.Background()); err != nil {
				t.Fatalf("seed %d: PollOnce: %v", seed, err)
			}
			for ; applied < int(p.Cursor())-1; applied++ {
				ref.Apply(history[applied])
			}
			if got.Applied() != ref.Applied() || got.Sessions() != ref.Sessions() || got.LastLagMS() != ref.LastLagMS() {
				t.Fatalf("seed %d after %d records: applied/sessions/lag = %d/%d/%v, raw apply has %d/%d/%v", seed, applied,
					got.Applied(), got.Sessions(), got.LastLagMS(), ref.Applied(), ref.Sessions(), ref.LastLagMS())
			}
			for _, id := range sessions {
				g, gok := got.Get(id)
				r, rok := ref.Get(id)
				if gok != rok || !reflect.DeepEqual(g, r) {
					t.Fatalf("seed %d after %d records, session %s:\n feed %+v (%v)\n  raw %+v (%v)", seed, applied, id, g, gok, r, rok)
				}
			}
		}
		srv.Close()
	}
}
