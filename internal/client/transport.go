package client

import "context"

// Transport is one strategy for moving an open session's result blocks
// from server to client. The pull transport (Session itself) requests
// each block and pays a request round-trip per block; the push
// transport (streamSession) holds one long-lived stream the server
// frames blocks onto under credit-based flow control, so the per-block
// RTT disappears from the transfer's critical path. Both speak the same
// seq/replay protocol underneath, so retries, reconnects and failovers
// deliver every tuple exactly once regardless of transport.
type Transport interface {
	// Next delivers the next block of up to size tuples.
	Next(ctx context.Context, size int) (*Block, error)
	// Done reports whether the result set has been exhausted.
	Done() bool
	// Close releases the transport and deletes the server-side session.
	Close(ctx context.Context) error
}

// The pull path is the Transport default.
var _ Transport = (*Session)(nil)

// PushConfig enables and tunes the client side of the server-push
// streaming transport (DESIGN.md §19).
type PushConfig struct {
	// Enabled switches every run mode's sessions from pull to push.
	Enabled bool
	// Window pins the credit window when the controller has no window
	// knob (core.VectorOf reports 0). Zero or less, the default, asks for
	// the largest window the server announces it applies (1024 unless
	// `wsblockd -push-window` says otherwise), which also bounds a pinned
	// one: over a link with real delay a small window is stop-and-wait.
	// Whatever the window, the server's byte budget bounds what it pins.
	Window int
}

// SetPush configures the push transport. Call before opening sessions.
func (c *Client) SetPush(pc PushConfig) { c.push = pc }

// transportFor wraps a session in the configured transport. win
// supplies the live credit-window target (the controller's window knob);
// while it is nil or reports 0 the configured window applies, or the
// server's cap.
// Transparent-gateway sessions always pull — the gateway tier owns
// failover per pull request and does not proxy the stream endpoints — and
// so do sessions opened on an endpoint that has declined a stream before.
// A session still pending creation streams whatever another session has
// learned since it was named: only its stream open can create it, and
// where the tier declines, that open falls back by itself.
func (c *Client) transportFor(sess *Session, win func() int) Transport {
	if !c.push.Enabled || sess.transparent || !sess.pending && c.pullsOnly(sess.ep) {
		return sess
	}
	return newStreamSession(sess, win)
}
