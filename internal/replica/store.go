package replica

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// SessionState is the follower's standby view of one primary session:
// everything promotion needs to continue the transfer from the very next
// seq — the committed cursor, the last-acked seq, and the last committed
// block's bytes for a same-seq retry.
type SessionState struct {
	// Session is the primary-side session id.
	Session string
	// Query is the create request body the session was opened with.
	Query json.RawMessage
	// Seq is the last-acked block sequence number (0 = none yet).
	Seq uint64
	// Committed is the absolute tuple cursor after block Seq (the create
	// offset before any block commits).
	Committed int64
	// Tuples is the tuple count of block Seq.
	Tuples int
	// Done marks block Seq as the final block.
	Done bool
	// Codec names the wire codec Payload is encoded with.
	Codec string
	// Payload is block Seq's encoded bytes (a private copy).
	Payload []byte
	// AppliedAt is when the follower applied the latest record.
	AppliedAt time.Time
}

// Store is the follower-side standby state: session id → latest
// replicated state, built by applying records in LSN order. Safe for
// concurrent use.
type Store struct {
	mu       sync.Mutex
	sessions map[string]*SessionState
	maxSess  int

	applied   uint64
	lost      uint64 // records skipped past the retention window
	lastLagMS float64
	now       func() time.Time
}

// NewStore builds a standby store retaining state for up to maxSessions
// live sessions (default 4096 when <= 0); the oldest-applied entry is
// evicted beyond that, bounding memory when close records are lost.
func NewStore(maxSessions int) *Store {
	if maxSessions <= 0 {
		maxSessions = 4096
	}
	return &Store{sessions: make(map[string]*SessionState), maxSess: maxSessions, now: time.Now}
}

// setClock injects a fake clock for deterministic lag tests.
func (st *Store) setClock(now func() time.Time) { st.now = now }

// Apply folds records into the standby state, in order, and records
// their lag. The records of one call are applied atomically: a feed
// batch carries a session's payload only on its last commit, and no Get
// may see the state between a coalesced commit and the one that carries
// the bytes.
func (st *Store) Apply(recs ...Record) {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	for _, rec := range recs {
		st.applied++
		if rec.ShippedUnixNano > 0 {
			st.lastLagMS = float64(now.UnixNano()-rec.ShippedUnixNano) / 1e6
			if st.lastLagMS < 0 {
				st.lastLagMS = 0
			}
		}
		switch rec.Op {
		case OpCreate:
			st.evictOverflowLocked()
			st.sessions[rec.Session] = &SessionState{
				Session:   rec.Session,
				Query:     rec.Query,
				Committed: rec.Committed,
				AppliedAt: now,
			}
		case OpCommit:
			ss := st.sessions[rec.Session]
			if ss == nil {
				// The create record fell outside the retention window; standby
				// state can still serve retries from the commit alone.
				st.evictOverflowLocked()
				ss = &SessionState{Session: rec.Session}
				st.sessions[rec.Session] = ss
			}
			ss.Seq = rec.Seq
			ss.Committed = rec.Committed
			ss.Tuples = rec.Tuples
			ss.Done = rec.Done
			ss.Codec = rec.Codec
			ss.Payload = rec.Payload
			ss.AppliedAt = now
		case OpClose:
			delete(st.sessions, rec.Session)
		}
	}
}

// evictOverflowLocked drops the oldest-applied entry once the store is
// full. Called with st.mu held, before an insert.
func (st *Store) evictOverflowLocked() {
	if len(st.sessions) < st.maxSess {
		return
	}
	var oldest string
	var oldestAt time.Time
	for id, ss := range st.sessions {
		if oldest == "" || ss.AppliedAt.Before(oldestAt) {
			oldest, oldestAt = id, ss.AppliedAt
		}
	}
	if oldest != "" {
		delete(st.sessions, oldest)
	}
}

// Reset drops every session's standby state. The puller calls it when it
// detects the primary restarted: a fresh primary process restarts its
// session-id counter, so retained state could otherwise be replayed to
// an unrelated session that happens to reuse an old id.
func (st *Store) Reset() {
	st.mu.Lock()
	st.sessions = make(map[string]*SessionState)
	st.mu.Unlock()
}

// MarkLost counts records that fell past the primary's retention window
// before the follower could pull them.
func (st *Store) MarkLost(n uint64) {
	if n == 0 {
		return
	}
	st.mu.Lock()
	st.lost += n
	st.mu.Unlock()
}

// Get returns the standby state for a session, if any. The returned
// struct is a private copy.
func (st *Store) Get(session string) (SessionState, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ss := st.sessions[session]
	if ss == nil {
		return SessionState{}, false
	}
	return *ss, true
}

// Sessions returns the number of sessions with standby state.
func (st *Store) Sessions() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

// Applied returns how many records have been applied.
func (st *Store) Applied() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.applied
}

// Lost returns how many records were skipped past the retention window.
func (st *Store) Lost() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lost
}

// LastLagMS returns the replication lag, in milliseconds, of the most
// recently applied record (ship time to apply time).
func (st *Store) LastLagMS() float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastLagMS
}

// StatusError is a feed pull that reached the primary but got a non-200
// response — the primary is ALIVE (replication may simply be disabled),
// so followers must not treat it as a death signal the way they treat
// transport errors.
type StatusError struct {
	Code   int
	URL    string
	Status string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("replica: feed %s returned %s", e.URL, e.Status)
}

// Puller ships one primary's replication feed into a Store: it polls
// GET {URL}/replication/feed?from=LSN, applies each batch in LSN order,
// and tracks how far behind the primary it is. One Puller per backend;
// Run loops until the context is cancelled.
type Puller struct {
	// URL is the primary's base URL (the feed lives under /replication/feed).
	URL string
	// Store receives the applied records. Required.
	Store *Store
	// Interval is the idle poll period (default 25ms); a pull that left
	// records behind on the primary is followed immediately.
	Interval time.Duration
	// HTTP is the client used for feed pulls (default: 10s timeout).
	HTTP *http.Client
	// Batch is the per-pull record cap (default 256).
	Batch int
	// OnError observes pull failures (nil = ignore); a dead primary
	// surfaces here every interval until the context is cancelled.
	OnError func(error)

	mu      sync.Mutex
	from    uint64 // next LSN to ask for
	pending uint64 // primary's next LSN minus ours, after the last pull
	boot    string // primary boot id at the last successful pull
	// restarts counts primary restarts observed (boot id changed or the
	// feed's LSNs regressed below our cursor); each one rewound the
	// cursor and cleared the Store.
	restarts uint64
}

// Lag returns the record lag observed at the last successful pull: how
// many records the primary had appended that this puller had not yet
// applied.
func (p *Puller) Lag() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// Cursor returns the next LSN the puller will ask for.
func (p *Puller) Cursor() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.from
}

// Restarts returns how many primary restarts this puller has observed.
// A nonzero, growing value is the observable signature of a primary
// whose in-memory log reset; without it a rewound feed would be
// indistinguishable from a caught-up one (Lag reads 0 both ways).
func (p *Puller) Restarts() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.restarts
}

// PollOnce performs one feed pull and applies the batch, returning the
// number of records applied. When the pull reveals that the primary
// restarted, the cursor is rewound to the new log's start, the Store is
// cleared, and the feed is re-pulled once so the new incarnation's
// records apply within the same call.
func (p *Puller) PollOnce(ctx context.Context) (int, error) {
	n, restarted, err := p.poll(ctx)
	if restarted && err == nil {
		n2, _, err2 := p.poll(ctx)
		return n + n2, err2
	}
	return n, err
}

// poll performs one feed pull. restarted reports that a primary restart
// was detected and handled (cursor rewound, Store cleared) instead of
// applying records.
func (p *Puller) poll(ctx context.Context) (applied int, restarted bool, err error) {
	hc := p.HTTP
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	batch := p.Batch
	if batch <= 0 {
		batch = 256
	}
	p.mu.Lock()
	if p.from == 0 {
		p.from = 1 // LSNs start at 1
	}
	from := p.from
	p.mu.Unlock()
	u := p.URL + "/replication/feed?from=" + strconv.FormatUint(from, 10) + "&max=" + strconv.Itoa(batch)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, false, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, false, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return 0, false, &StatusError{Code: resp.StatusCode, URL: p.URL, Status: resp.Status}
	}
	fr, err := readFeed(bufio.NewReader(resp.Body))
	if err != nil {
		return 0, false, fmt.Errorf("replica: decode feed %s: %w", p.URL, err)
	}
	// A restarted primary serves a fresh log: its boot id changes and its
	// LSNs restart at 1 (the cursor-regression check covers primaries that
	// predate the boot id). Rewind to the new log's start and clear the
	// standby store — the new process restarts its session-id counter too,
	// so retained state could be replayed to an unrelated session that
	// reuses an old id. Without this, the cursor would sit past the new
	// log's head forever: empty batches, Lag 0, replication wedged.
	p.mu.Lock()
	if fr.Next < p.from || (p.boot != "" && fr.Boot != "" && fr.Boot != p.boot) {
		p.restarts++
		p.boot = fr.Boot
		p.from = fr.First
		if p.from == 0 {
			p.from = fr.Next // the new log is still empty
		}
		p.pending = 0
		if fr.Next > p.from {
			p.pending = fr.Next - p.from
		}
		p.mu.Unlock()
		p.Store.Reset()
		return 0, true, nil
	}
	p.boot = fr.Boot
	p.mu.Unlock()
	// Records between our cursor and the primary's retention window were
	// evicted before we could pull them.
	if fr.First > from && len(fr.Records) > 0 && fr.Records[0].LSN > from {
		p.Store.MarkLost(fr.Records[0].LSN - from)
	} else if len(fr.Records) == 0 && fr.First > from && fr.Next > fr.First {
		p.Store.MarkLost(fr.First - from)
	}
	p.Store.Apply(fr.Records...)
	p.mu.Lock()
	if len(fr.Records) > 0 {
		p.from = fr.Records[len(fr.Records)-1].LSN + 1
	} else if fr.Next > p.from {
		// Empty batch with a higher next: the whole gap was evicted.
		p.from = fr.Next
	}
	p.pending = 0
	if fr.Next > p.from {
		p.pending = fr.Next - p.from
	}
	p.mu.Unlock()
	return len(fr.Records), false, nil
}

// Run polls until the context is cancelled. A pull whose response says
// the primary retains more (Lag > 0: a batch ends at its record cap or
// its byte budget, whichever comes first) is followed up immediately;
// otherwise the puller sleeps for its interval.
func (p *Puller) Run(ctx context.Context) {
	interval := p.Interval
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	for ctx.Err() == nil {
		_, err := p.PollOnce(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if p.OnError != nil {
				p.OnError(err)
			}
		}
		if err == nil && p.Lag() > 0 {
			continue // behind: keep draining without sleeping
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
	}
}
