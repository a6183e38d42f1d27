package netsim

// Push transport cost derivation. In the pull protocol every block pays
// the full fixed overhead LatencyMS: a request round-trip plus envelope
// processing. A push stream sends one request for the whole result set
// and then frames blocks back-to-back on a long-lived response, so in
// the credit-limited steady state a block's fixed cost shrinks to the
// residual framing/flush overhead — the round-trip disappears from the
// per-block path and only throttles the stream when the credit window
// drains. That is exactly why the paper's optimizer converges to huge
// blocks on high-RTT links: it is amortizing a cost the transport can
// simply remove. The push model makes that counterfactual measurable
// under identical profiles.

// PushOverheadFrac is the fraction of the pull fixed overhead that
// survives on the push path when no explicit PushOverheadMS is given:
// per-frame encode/flush work and the amortized share of credit-grant
// traffic. Calibrated against the e2e loopback measurements, where a
// push frame's fixed cost is a few percent of a request round-trip.
const PushOverheadFrac = 0.05

// Push derives the cost model of the same link and server observed
// through the push transport: identical per-tuple cost, knee, penalty
// and noise structure, but the per-request overhead replaced by the
// residual per-frame overhead. overheadMS <= 0 picks the default
// PushOverheadFrac share of the pull overhead.
//
// The latency jitter keeps its absolute scale (it models server-side
// queueing and GC, which do not shrink because the client stopped
// sending requests): the jitter coefficient is rescaled so that
// jitterMS = LatencyMS·LatencyJitter is preserved.
func (m CostModel) Push(overheadMS float64) CostModel {
	out := m
	if overheadMS <= 0 {
		overheadMS = m.LatencyMS * PushOverheadFrac
	}
	if m.LatencyMS > 0 && overheadMS > 0 {
		out.LatencyJitter = m.LatencyJitter * m.LatencyMS / overheadMS
	}
	out.LatencyMS = overheadMS
	return out
}

// PushSpeedup returns the expected pull/push total-time ratio for a
// whole transfer of `tuples` rows at fixed block size x — the headline
// number of the push-vs-pull experiment, which its shape test gates.
func (m CostModel) PushSpeedup(tuples, x int, overheadMS float64) float64 {
	push := m.Push(overheadMS).ExpectedTotalMS(tuples, x)
	if push <= 0 {
		return 0
	}
	return m.ExpectedTotalMS(tuples, x) / push
}
