package client

import (
	"wsopt/internal/metrics"
	"wsopt/internal/resilience"
)

// clientMetrics holds the consumer-side series: what Algorithm 1
// observes (per-block RTT) plus transfer accounting the controllers
// never see (bytes moved, retries, replays) and the resilience layer's
// bookkeeping (breaker transitions, failovers, deadline expiries).
type clientMetrics struct {
	blocks  *metrics.Counter
	tuples  *metrics.Counter
	bytes   *metrics.Counter
	retries *metrics.Counter
	replays *metrics.Counter

	failovers        *metrics.Counter
	deadlineTimeouts *metrics.Counter

	pushFrames     *metrics.Counter
	pushGrants     *metrics.Counter
	pushReconnects *metrics.Counter

	breakerToClosed   *metrics.Counter
	breakerToOpen     *metrics.Counter
	breakerToHalfOpen *metrics.Counter

	rtt       *metrics.Histogram
	blockSize *metrics.Histogram
}

// newClientMetrics registers the client's series in reg. All series are
// registered eagerly (value 0) so a scrape sees the full schema before
// traffic; the per-endpoint breaker-state gauges read the client's
// *current* pool at scrape time, so they survive a SetResilience rebuild.
func newClientMetrics(reg *metrics.Registry, c *Client) *clientMetrics {
	m := &clientMetrics{
		blocks:  reg.Counter("wsopt_client_blocks_total", "Blocks successfully pulled."),
		tuples:  reg.Counter("wsopt_client_tuples_total", "Tuples successfully pulled."),
		bytes:   reg.Counter("wsopt_client_bytes_total", "Encoded payload bytes received in successful pulls."),
		retries: reg.Counter("wsopt_client_retries_total", "Extra pull attempts beyond the first."),
		replays: reg.Counter("wsopt_client_replays_total", "Blocks the server served from its replay buffer."),

		failovers:        reg.Counter("wsopt_client_failovers_total", "Sessions re-opened on another replica after the current endpoint's breaker opened or a block outlived its deadline there."),
		deadlineTimeouts: reg.Counter("wsopt_client_deadline_timeouts_total", "Block attempts, pull or push, cancelled by the adaptive per-block deadline."),

		pushFrames:     reg.Counter("wsopt_client_push_frames_total", "Blocks delivered over the push stream transport."),
		pushGrants:     reg.Counter("wsopt_client_push_grants_total", "Credit grants posted on the push side channel."),
		pushReconnects: reg.Counter("wsopt_client_push_reconnects_total", "Push streams torn down and re-opened (resume, watchdog, or failover)."),

		breakerToClosed:   reg.Counter("wsopt_client_breaker_transitions_total", "Circuit-breaker state transitions, by destination state.", metrics.L("to", "closed")),
		breakerToOpen:     reg.Counter("wsopt_client_breaker_transitions_total", "Circuit-breaker state transitions, by destination state.", metrics.L("to", "open")),
		breakerToHalfOpen: reg.Counter("wsopt_client_breaker_transitions_total", "Circuit-breaker state transitions, by destination state.", metrics.L("to", "half-open")),

		rtt:       reg.Histogram("wsopt_client_block_rtt_ms", "Client-observed round-trip time per successful block, in milliseconds.", metrics.DefLatencyBuckets),
		blockSize: reg.Histogram("wsopt_client_block_size_tuples", "Tuples per received block.", metrics.DefSizeBuckets),
	}
	if c != nil {
		for _, u := range c.urls {
			u := u
			reg.GaugeFunc("wsopt_client_breaker_state",
				"Breaker state per endpoint: 0 closed, 1 open, 2 half-open.",
				func() float64 { return float64(c.endpointState(u)) },
				metrics.L("endpoint", u))
		}
	}
	return m
}

// breakerTransition counts one breaker state change by destination.
func (m *clientMetrics) breakerTransition(to resilience.BreakerState) {
	switch to {
	case resilience.Closed:
		m.breakerToClosed.Inc()
	case resilience.Open:
		m.breakerToOpen.Inc()
	case resilience.HalfOpen:
		m.breakerToHalfOpen.Inc()
	}
}

// SetMetrics rebinds the client's series to reg, so they appear in the
// registry that backs an exporter or a test snapshot. Call before use;
// anything recorded earlier stays in the previous (private) registry.
func (c *Client) SetMetrics(reg *metrics.Registry) {
	if reg != nil {
		c.metrics = newClientMetrics(reg, c)
	}
}

// recordBlock accounts one successfully pulled block.
func (m *clientMetrics) recordBlock(blk *Block) {
	m.blocks.Inc()
	m.tuples.Add(int64(blk.Tuples))
	m.bytes.Add(blk.Bytes)
	m.retries.Add(int64(blk.Attempts - 1))
	if blk.Replayed {
		m.replays.Inc()
	}
	m.rtt.Observe(float64(blk.Elapsed.Microseconds()) / 1000)
	m.blockSize.Observe(float64(blk.Tuples))
}
