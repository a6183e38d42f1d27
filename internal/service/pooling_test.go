package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"wsopt/internal/blockcache"
	"wsopt/internal/netsim"
	"wsopt/internal/replica"
)

// TestPooledBufferNotReusedWhileReplayLive is the liveness proof for the
// encode-buffer pool: a block's pooled buffer must go back to the pool
// only when the block is superseded by the next committed block or the
// session closes — never while a same-seq retry could still be served
// from it.
func TestPooledBufferNotReusedWhileReplayLive(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 200)})
	var mu sync.Mutex
	var released []*blockcache.Entry
	onFinalRelease(t, srv, func(rb *blockcache.Entry) { mu.Lock(); released = append(released, rb); mu.Unlock() })
	releasedNow := func() []*blockcache.Entry { mu.Lock(); defer mu.Unlock(); return slices.Clone(released) }
	id, _ := openSession(t, ts, `{"table":"items"}`)

	seqOf := map[*blockcache.Entry]int{}
	payloads := map[int][]byte{}
	const blocks = 8
	for seq := 1; seq <= blocks; seq++ {
		// Fresh pull commits block seq; the previous block (and only it)
		// must have been released by the time the response is back.
		resp := pullSeq(t, ts, id, 10, seq)
		_, body, err := readFrame(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("seq %d: %s, %v", seq, resp.Status, err)
		}
		payloads[seq] = body

		sess, ok := srv.sessions.get(id)
		if !ok {
			t.Fatalf("seq %d: session vanished", seq)
		}
		sess.tail.mu.Lock()
		rb := sess.tail.frames[len(sess.tail.frames)-1].rb
		sess.tail.mu.Unlock()
		if !bytes.Equal(rb.Bytes(), body) {
			t.Fatalf("seq %d: replay buffer differs from served body", seq)
		}
		seqOf[rb] = seq

		if n, want := len(releasedNow()), seq-1; n != want {
			t.Fatalf("after committing seq %d: %d buffers released, want %d (release must happen exactly at supersede)",
				seq, n, want)
		}

		// A replay retry must not release anything and must serve the
		// exact committed bytes even though other buffers have cycled
		// through the pool.
		resp = pullSeq(t, ts, id, 10, seq)
		_, replayed, err := readFrame(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("seq %d replay: %s, %v", seq, resp.Status, err)
		}
		if !bytes.Equal(replayed, body) {
			t.Fatalf("seq %d: replay bytes differ from fresh block", seq)
		}
		if len(releasedNow()) != seq-1 {
			t.Fatalf("seq %d: replay released a buffer", seq)
		}
	}

	// Releases happened oldest-first, one per supersede.
	for i, rb := range releasedNow() {
		if seqOf[rb] != i+1 {
			t.Fatalf("release %d was block seq %d, want %d", i, seqOf[rb], i+1)
		}
	}

	// Closing the session releases the final live block's buffer, then
	// the one block 8's read-ahead prepared (the pulls hold size 10), which
	// no request took. A read-ahead encode that outlives the session
	// releases its block on its own goroutine: RetainedBlocks joins the
	// encodes before the count.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/sessions/%s", ts.URL, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.RetainedBlocks()
	got := releasedNow()
	if len(got) != blocks+1 {
		t.Fatalf("after close: %d buffers released, want %d (the blocks and one read-ahead)", len(got), blocks+1)
	}
	if seqOf[got[blocks-1]] != blocks {
		t.Fatalf("close released block seq %d, want %d", seqOf[got[blocks-1]], blocks)
	}
	if seq, served := seqOf[got[blocks]]; served {
		t.Fatalf("close's last release was served block %d, want the unserved read-ahead", seq)
	}
}

// onFinalRelease installs hook as blockcache's final-release hook for the
// rest of the test. Its cleanup joins srv's read-ahead encodes before it
// clears the hook, so that a release they make late — a failed test
// leaves its session and its encodes behind — cannot land in the next
// test's hook.
func onFinalRelease(t *testing.T, srv *Server, hook func(*blockcache.Entry)) {
	blockcache.OnFinalRelease(hook)
	t.Cleanup(func() {
		srv.RetainedBlocks()
		blockcache.OnFinalRelease(nil)
	})
}

// TestReplayByteIdenticalUnderPoolReuse interleaves two sessions so
// pooled buffers cycle between them, and checks every replay still
// serves the exact bytes of its fresh block.
func TestReplayByteIdenticalUnderPoolReuse(t *testing.T) {
	_, ts := newTestServer(t, Config{Catalog: testCatalog(t, 500)})
	idA, _ := openSession(t, ts, `{"table":"items"}`)
	idB, _ := openSession(t, ts, `{"table":"items","where":"id >= 100"}`)

	fetch := func(id string, size, seq int) []byte {
		t.Helper()
		resp := pullSeq(t, ts, id, size, seq)
		_, body, err := readFrame(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("session %s seq %d: %s, %v", id, seq, resp.Status, err)
		}
		return body
	}

	for seq := 1; seq <= 12; seq++ {
		// Fresh A, then fresh B (which plausibly adopts A's recycled
		// buffer), then replays of both.
		a := fetch(idA, 7, seq)
		b := fetch(idB, 13, seq)
		if ra := fetch(idA, 7, seq); !bytes.Equal(ra, a) {
			t.Fatalf("seq %d: session A replay corrupted by pool reuse", seq)
		}
		if rb := fetch(idB, 13, seq); !bytes.Equal(rb, b) {
			t.Fatalf("seq %d: session B replay corrupted by pool reuse", seq)
		}
	}
}

// TestExpireIdleReleasesReplayBuffers checks the janitor path returns
// buffers too (when no pull holds the session lock).
func TestExpireIdleReleasesReplayBuffers(t *testing.T) {
	srv, ts := newTestServer(t, Config{Catalog: testCatalog(t, 50), SessionTTL: time.Nanosecond})
	var released int
	onFinalRelease(t, srv, func(*blockcache.Entry) { released++ })
	id, _ := openSession(t, ts, `{"table":"items"}`)
	resp := pullSeq(t, ts, id, 10, 1)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if n := srv.ExpireIdle(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("expired %d sessions, want 1", n)
	}
	if released != 1 {
		t.Fatalf("janitor released %d buffers, want 1", released)
	}
}

// TestCloseRaceOwnershipHandoff is the regression test for the
// delete-during-pull ownership window: DELETE wins the session-map race
// while a pull holds the session lock (sleeping its injected delay), so
// the tail is closed and its OpClose is in the replication log before
// the pull commits. Pre-fix, the pull would then (a) ship its OpCommit
// AFTER the OpClose — resurrecting a ghost standby session on every
// follower — and (b) park its fresh replay buffer in the unreachable
// session, leaking the buffer's pool slot forever. Now a commit into a
// closed tail records and ships nothing, and the pull's own write
// reference is the block's only one. Run with -race; the cached arm
// covers the same window on the cache-entry commit path, and
// TestStressCloseRacesCommit the narrow window at the commit itself.
func TestCloseRaceOwnershipHandoff(t *testing.T) {
	for _, cached := range []bool{false, true} {
		name := "pooled"
		if cached {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			rlog := replica.NewLog(64)
			cfg := Config{
				Catalog:    testCatalog(t, 200),
				Replica:    rlog,
				CostModel:  netsim.CostModel{LatencyMS: 300},
				SleepScale: 1,
			}
			if cached {
				c, err := blockcache.New(blockcache.Config{MemBytes: 1 << 20})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Cache = c
			}
			srv, ts := newTestServer(t, cfg)
			var mu sync.Mutex
			var released []*blockcache.Entry
			onFinalRelease(t, srv, func(rb *blockcache.Entry) {
				mu.Lock()
				released = append(released, rb)
				mu.Unlock()
			})
			id, _ := openSession(t, ts, `{"table":"items"}`)

			// Block 1 commits normally (and ships), so the close-racing
			// pull below has a superseded buffer to release.
			resp := pullSeq(t, ts, id, 10, 1)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()

			sess, ok := srv.sessions.get(id)
			if !ok {
				t.Fatal("session vanished")
			}

			// Block 2 sleeps ~300ms holding the session lock.
			pulled := make(chan []byte, 1)
			go func() {
				resp := pullSeq(t, ts, id, 10, 2)
				_, body, _ := readFrame(resp.Body)
				resp.Body.Close()
				pulled <- body
			}()
			// Wait until block 2's pull holds the lock, then land the DELETE
			// mid-pull. A held lock alone does not say whose it is (block
			// 1's handler keeps it past its flush); asking for block 2 acks
			// block 1, and that happens under the lock block 2 then keeps
			// through its 300 ms delay.
			waitFor(t, func() bool {
				sess.tail.mu.Lock()
				defer sess.tail.mu.Unlock()
				return sess.tail.acked == 1
			})
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+id, nil)
			dresp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			dresp.Body.Close()

			// The racing client still gets its block: the bytes were in
			// hand before the close won the map race.
			if body := <-pulled; len(body) == 0 {
				t.Fatal("close-racing pull returned no payload")
			}

			// Follower-visible invariant: nothing for this session lands
			// after its OpClose, so no ghost standby session can be
			// resurrected.
			recs, _, _, release := rlog.Read(1, 1000)
			release()
			closeSeen := false
			for _, rec := range recs {
				if rec.Session != id {
					continue
				}
				if closeSeen {
					t.Fatalf("record %s (LSN %d) shipped after OpClose — ghost session resurrected on followers", rec.Op, rec.LSN)
				}
				if rec.Op == replica.OpClose {
					closeSeen = true
				}
			}
			if !closeSeen {
				t.Fatal("OpClose never shipped")
			}

			// Ownership invariant: the log's reference to block 1 is the
			// only one left, and once the log drops it every block has been
			// fully released — block 1 and block 2 (the pull's close
			// handoff). Pre-fix, block 2 stays parked in the unreachable
			// session forever. A cached block's last reference is the
			// cache's, so only the pooled arm sees the final releases.
			waitFor(t, func() bool { return srv.RetainedBlocks() == 1 })
			rlog.Close()
			mu.Lock()
			n := len(released)
			mu.Unlock()
			if !cached && n != 2 {
				t.Fatalf("%d blocks released, want 2 (close-racing pull must release its own commit)", n)
			}
			assertNoRetainedBlocks(t, srv)
		})
	}
}
