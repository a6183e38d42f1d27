package gateway

import (
	"sync/atomic"

	"wsopt/internal/metrics"
)

// gwStats is the gateway's one set of counters: one atomic per counted
// fact, bumped once where the fact happens. Stats() (GET /stats) and the
// wsopt_gateway_*_total series are two read-only views of them.
type gwStats struct {
	sessionsOpened  atomic.Int64
	sessionsShed    atomic.Int64
	sessionsExpired atomic.Int64
	blocksProxied   atomic.Int64
	tuplesProxied   atomic.Int64
	failovers       atomic.Int64
	standbyReplays  atomic.Int64
	fallbackReplays atomic.Int64
	readAheadHits   atomic.Int64
	readAheadMisses atomic.Int64
}

// registerMetrics exposes the gateway in reg. The gateway re-exports an
// AGGREGATE view: per-backend health and replication lag plus fleet-wide
// session/block/failover counters, so one scrape of the gateway
// describes the whole tier. Counters and gauges are read at scrape time
// from the state they describe; only the block-serve histogram is the
// registry's own.
func (g *Gateway) registerMetrics(reg *metrics.Registry) {
	st := &g.stats
	reg.CounterFunc("wsopt_gateway_sessions_opened_total", "Client sessions opened through the gateway.", st.sessionsOpened.Load)
	reg.CounterFunc("wsopt_gateway_sessions_shed_total", "Session creates refused by edge admission control.", st.sessionsShed.Load)
	reg.CounterFunc("wsopt_gateway_sessions_expired_total", "Idle gateway sessions expired by the janitor (admission slot released).", st.sessionsExpired.Load)
	reg.CounterFunc("wsopt_gateway_blocks_proxied_total", "Blocks served to clients through the gateway.", st.blocksProxied.Load)
	reg.CounterFunc("wsopt_gateway_tuples_proxied_total", "Tuples served to clients through the gateway.", st.tuplesProxied.Load)
	reg.CounterFunc("wsopt_gateway_failovers_total", "Sessions transparently moved to a successor backend after a primary died.", st.failovers.Load)
	reg.CounterFunc("wsopt_gateway_standby_replays_total", "Post-failover retries served byte-identical from the replicated standby copy.", st.standbyReplays.Load)
	reg.CounterFunc("wsopt_gateway_fallback_replays_total", "Post-failover retries re-pulled from the successor because replication lagged behind the crash.", st.fallbackReplays.Load)
	const readAheadHelp = "Fresh pulls of a promising client, by outcome: answered with the block read ahead for them (hit) or re-opened on the backend after a broken promise or a failed read-ahead (miss)."
	reg.CounterFunc("wsopt_gateway_read_ahead_total", readAheadHelp, st.readAheadHits.Load, metrics.L("outcome", "hit"))
	reg.CounterFunc("wsopt_gateway_read_ahead_total", readAheadHelp, st.readAheadMisses.Load, metrics.L("outcome", "miss"))
	g.blockServe = reg.Histogram("wsopt_gateway_block_serve_ms",
		"Client-observed block serve time through the gateway in milliseconds (fleet-wide; feeds the edge SLO regulator).",
		metrics.DefServeBuckets)
	reg.GaugeFunc("wsopt_gateway_sessions_live",
		"Client sessions currently open at the gateway.",
		func() float64 { return float64(g.SessionCount()) })
	reg.GaugeFunc("wsopt_gateway_session_limit",
		"Edge admission ceiling commanded by the SLO regulator (0 = unlimited).",
		func() float64 { return float64(g.SessionLimit()) })
	reg.GaugeFunc("wsopt_gateway_admission_pressure",
		"Edge delay-pricing pressure commanded by the SLO regulator.",
		g.AdmissionPressure)

	for _, b := range g.backends {
		lbl := metrics.L("backend", b.url)
		reg.GaugeFunc("wsopt_gateway_backend_healthy",
			"Backend health from its circuit breaker: 1 closed, 0.5 half-open, 0 open.",
			b.healthScore, lbl)
		reg.GaugeFunc("wsopt_gateway_sessions_by_backend",
			"Gateway sessions currently primaried on this backend.",
			func() float64 { return float64(b.sessions.Load()) }, lbl)
		reg.GaugeFunc("wsopt_gateway_replication_lag_records",
			"Replication records appended on the backend but not yet applied at the gateway.",
			func() float64 { return float64(b.puller.Lag()) }, lbl)
		reg.GaugeFunc("wsopt_gateway_replication_lag_ms",
			"Ship-to-apply latency of the backend's most recent replication record in milliseconds.",
			b.store.LastLagMS, lbl)
		reg.GaugeFunc("wsopt_gateway_standby_sessions",
			"Sessions with standby state replicated from this backend.",
			func() float64 { return float64(b.store.Sessions()) }, lbl)
		reg.GaugeFunc("wsopt_gateway_primary_restarts",
			"Primary restarts observed on this backend's replication feed (boot id changed or LSNs regressed); each rewound the puller and cleared the standby store.",
			func() float64 { return float64(b.puller.Restarts()) }, lbl)
	}
}
