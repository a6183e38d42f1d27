package service

import "sync"

// streamGroups accounts for parallel-stream clients: a client that splits
// one logical query's cursor range across N concurrent sessions tags each
// of them with a shared stream-group ID, and the service tracks how many
// cursors each group has open and unfinished (a cursor leaves at its done
// block, or at its delete or expiry if that comes first). The counters
// feed Stats (peak concurrency within any single group, stream-tagged
// sessions ever opened) and the stream-groups-active gauge — the
// server-side ground truth the vector controller's stream dimension is
// validated against.
//
// The tracker is a single small mutex-guarded map rather than a sharded
// structure: it is touched only on a tagged session's create, done block
// and close, never on the per-block hot path.
type streamGroups struct {
	mu     sync.Mutex
	active map[string]int
	opened int64
	peak   int64
}

// join records one more open cursor in the group. Empty group IDs
// (sessions not part of a parallel-stream run) are ignored.
func (g *streamGroups) join(group string) {
	if group == "" {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.active == nil {
		g.active = make(map[string]int)
	}
	g.active[group]++
	g.opened++
	if n := int64(g.active[group]); n > g.peak {
		g.peak = n
	}
}

// leave records a cursor leaving the group (done, delete or expiry).
func (g *streamGroups) leave(group string) {
	if group == "" {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if n, ok := g.active[group]; ok {
		if n <= 1 {
			delete(g.active, group)
		} else {
			g.active[group] = n - 1
		}
	}
}

// snapshot returns the stream-tagged sessions ever opened, the high-water
// concurrent cursors within any single group, and the groups currently
// holding at least one open cursor.
func (g *streamGroups) snapshot() (opened, peak int64, activeGroups int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.opened, g.peak, len(g.active)
}
