package service

import (
	"sync/atomic"

	"wsopt/internal/blockcache"
	"wsopt/internal/metrics"
)

// serverStats is the service's one set of counters: one atomic per
// counted fact, bumped once where the fact happens, without any mutex.
// Stats() (and so GET /stats) and the wsopt_service_*_total series of
// /metrics are two read-only views of these same atomics, so they cannot
// drift apart. A served block is counted before its last byte can leave
// and taken back when the write fails (serveBlock).
type serverStats struct {
	sessionsOpened       atomic.Int64
	blocksServed         atomic.Int64
	tuplesServed         atomic.Int64
	blocksReplayed       atomic.Int64
	encodeFailures       atomic.Int64
	ingestsOpened        atomic.Int64
	blocksIngested       atomic.Int64
	tuplesIngested       atomic.Int64
	blocksIngestReplayed atomic.Int64
	sessionsShed         atomic.Int64
	pushStreamsOpened    atomic.Int64
	pushFramesSent       atomic.Int64
	pushFramesReplayed   atomic.Int64
	pushCreditGrants     atomic.Int64
	pushCreditStalls     atomic.Int64
	pushWindowClamped    atomic.Int64
	pushRetainedBytes    atomic.Int64
	readAheadHits        atomic.Int64
	readAheadMisses      atomic.Int64
	faultsDropped        atomic.Int64
	faultsTruncated      atomic.Int64
	faultsRefused        atomic.Int64
}

// histograms are the service's registry-owned distributions; they have
// no Stats() twin. blockServe is the SLO regulator's feedback signal;
// blockEncode is one stage of it, observed only when a block is encoded
// (a cache hit or a replay serves bytes that already exist).
type histograms struct {
	blockSize   *metrics.Histogram
	blockDelay  *metrics.Histogram
	blockServe  *metrics.Histogram
	blockEncode *metrics.Histogram
}

// registerMetrics exposes the server in reg: every counter as a
// scrape-time view of its atomic, the live gauges as views of the state
// they describe, and the four histograms. All series exist (at 0) before
// traffic, so a scrape sees the full schema.
func (s *Server) registerMetrics(reg *metrics.Registry) {
	st := &s.stats
	reg.CounterFunc("wsopt_service_sessions_opened_total", "Download sessions ever created.", st.sessionsOpened.Load)
	reg.CounterFunc("wsopt_service_ingests_opened_total", "Upload sessions ever created.", st.ingestsOpened.Load)
	reg.CounterFunc("wsopt_service_blocks_served_total", "Block responses fully written to clients (replays included).", st.blocksServed.Load)
	reg.CounterFunc("wsopt_service_tuples_served_total", "Tuples in fully written block responses.", st.tuplesServed.Load)
	reg.CounterFunc("wsopt_service_blocks_replayed_total", "Blocks served verbatim from a session's replay buffer.", st.blocksReplayed.Load)
	reg.CounterFunc("wsopt_service_sessions_shed_total", "Session creations refused by admission control (503 + Retry-After).", st.sessionsShed.Load)
	reg.CounterFunc("wsopt_service_encode_failures_total", "Blocks whose codec encoding failed.", st.encodeFailures.Load)
	reg.CounterFunc("wsopt_service_blocks_ingested_total", "Blocks received from uploading clients.", st.blocksIngested.Load)
	reg.CounterFunc("wsopt_service_tuples_ingested_total", "Tuples received from uploading clients.", st.tuplesIngested.Load)
	reg.CounterFunc("wsopt_service_ingest_replays_total", "Duplicate upload blocks acknowledged without re-applying.", st.blocksIngestReplayed.Load)
	reg.CounterFunc("wsopt_service_push_streams_opened_total", "Push streams opened (reconnects included).", st.pushStreamsOpened.Load)
	reg.CounterFunc("wsopt_service_push_frames_sent_total", "Push data frames fully written (replays included).", st.pushFramesSent.Load)
	reg.CounterFunc("wsopt_service_push_frames_replayed_total", "Push frames re-sent from the retained unacked tail.", st.pushFramesReplayed.Load)
	reg.CounterFunc("wsopt_service_push_credit_grants_total", "Credit updates accepted on the push side channel.", st.pushCreditGrants.Load)
	reg.CounterFunc("wsopt_service_push_credit_stalls_total", "Push producer waits that blocked on an exhausted credit window.", st.pushCreditStalls.Load)
	reg.CounterFunc("wsopt_service_push_window_clamped_total", "Push stream opens that asked for a window above the server's cap and were cut to it.", st.pushWindowClamped.Load)
	const readAheadHelp = "Blocks a pull's read-ahead prepared, by outcome: taken by a request (hit) or released unused, one per block (miss)."
	reg.CounterFunc("wsopt_service_read_ahead_total", readAheadHelp, st.readAheadHits.Load, metrics.L("outcome", "hit"))
	reg.CounterFunc("wsopt_service_read_ahead_total", readAheadHelp, st.readAheadMisses.Load, metrics.L("outcome", "miss"))
	const faultsHelp = "Transport faults fired by the chaos layer, by kind."
	reg.CounterFunc("wsopt_service_faults_injected_total", faultsHelp, st.faultsDropped.Load, metrics.L("kind", "dropped"))
	reg.CounterFunc("wsopt_service_faults_injected_total", faultsHelp, st.faultsTruncated.Load, metrics.L("kind", "truncated"))
	reg.CounterFunc("wsopt_service_faults_injected_total", faultsHelp, st.faultsRefused.Load, metrics.L("kind", "refused"))
	s.hist = histograms{
		blockSize:   reg.Histogram("wsopt_service_block_size_tuples", "Tuples per served block.", metrics.DefSizeBuckets),
		blockDelay:  reg.Histogram("wsopt_service_block_delay_ms", "Injected simulated delay per served block, in milliseconds.", metrics.DefLatencyBuckets),
		blockServe:  reg.Histogram("wsopt_service_block_serve_ms", "Wall time to serve one block (injected delay included), in milliseconds — the SLO regulator's feedback signal.", metrics.DefServeBuckets),
		blockEncode: reg.Histogram("wsopt_service_block_encode_ms", "Wall time the codec took to encode (and compress) one block, in milliseconds; cache hits and replays encode nothing and are not observed.", metrics.DefServeBuckets),
	}
	reg.GaugeFunc("wsopt_service_sessions_live", "Currently open sessions (downloads + uploads).", func() float64 {
		return float64(s.sessions.size() + s.ingests.size())
	})
	reg.GaugeFunc("wsopt_service_push_retained_bytes", "Bytes the push sessions' unacked frames pin, summed over sessions.", func() float64 {
		return float64(st.pushRetainedBytes.Load())
	})
	reg.GaugeFunc("wsopt_service_stream_groups_active", "Stream groups currently holding at least one open cursor.", func() float64 {
		_, _, active := s.groups.snapshot()
		return float64(active)
	})
	reg.GaugeFunc("wsopt_service_session_limit", "Live admitted-session ceiling (0 = unlimited); owned by the SLO regulator when one is running.", func() float64 {
		return float64(s.SessionLimit())
	})
	reg.GaugeFunc("wsopt_service_admission_pressure", "Live delay-pricing pressure scaling Retry-After on shed sessions (0 = none).", func() float64 {
		return s.AdmissionPressure()
	})
	if rl := s.cfg.Replica; rl != nil {
		reg.GaugeFunc("wsopt_service_replication_appended_total", "Replication records appended to the primary-side log.", func() float64 {
			appended, _ := rl.Stats()
			return float64(appended)
		})
		reg.GaugeFunc("wsopt_service_replication_evicted_total", "Replication records evicted past the log's retention window.", func() float64 {
			_, evicted := rl.Stats()
			return float64(evicted)
		})
		reg.GaugeFunc("wsopt_service_replication_retained", "Replication records currently retained in the log.", func() float64 {
			return float64(rl.Len())
		})
	}
}

// countFault records one injected fault.
func (s *Server) countFault(k faultKind) {
	switch k {
	case faultDrop:
		s.stats.faultsDropped.Add(1)
	case faultTruncate:
		s.stats.faultsTruncated.Add(1)
	case fault503:
		s.stats.faultsRefused.Add(1)
	}
}

// Stats returns a snapshot of the service counters. Each field is an
// atomic load of the number /metrics reads too; each counter is exact at
// its load instant, and the snapshot as a whole once traffic has
// quiesced.
func (s *Server) Stats() Stats {
	st := &s.stats
	streamOpened, streamPeak, groupsActive := s.groups.snapshot()
	var cache *blockcache.Stats
	if s.cfg.Cache != nil {
		cs := s.cfg.Cache.Stats()
		cache = &cs
	}
	return Stats{
		Cache:                cache,
		StreamSessionsOpened: streamOpened,
		PeakGroupStreams:     streamPeak,
		StreamGroupsActive:   groupsActive,
		SessionsOpened:       st.sessionsOpened.Load(),
		BlocksServed:         st.blocksServed.Load(),
		TuplesServed:         st.tuplesServed.Load(),
		BlocksReplayed:       st.blocksReplayed.Load(),
		EncodeFailures:       st.encodeFailures.Load(),
		IngestsOpened:        st.ingestsOpened.Load(),
		BlocksIngested:       st.blocksIngested.Load(),
		TuplesIngested:       st.tuplesIngested.Load(),
		BlocksIngestReplayed: st.blocksIngestReplayed.Load(),
		SessionsShed:         st.sessionsShed.Load(),
		PushStreamsOpened:    st.pushStreamsOpened.Load(),
		PushFramesSent:       st.pushFramesSent.Load(),
		PushFramesReplayed:   st.pushFramesReplayed.Load(),
		PushCreditGrants:     st.pushCreditGrants.Load(),
		PushCreditStalls:     st.pushCreditStalls.Load(),
		PushWindowClamped:    st.pushWindowClamped.Load(),
		PushRetainedBytes:    st.pushRetainedBytes.Load(),
		ReadAheadHits:        st.readAheadHits.Load(),
		ReadAheadMisses:      st.readAheadMisses.Load(),
		FaultsInjected: FaultStats{
			Dropped:   st.faultsDropped.Load(),
			Truncated: st.faultsTruncated.Load(),
			Refused:   st.faultsRefused.Load(),
		},
	}
}
