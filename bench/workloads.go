package main

import "time"

// workload is one named stack + traffic mix. Every field is a property
// of the system under test's configuration or of the generated traffic;
// none is visible to the program being measured except through the
// requests it receives.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// codec is the wire.ByName codec both ends speak.
	codec string
	// table is the relation the closed-loop reader pulls, all columns
	// (ctl-profiles names its own relations and projections, in ctl.go).
	table string
	// block is the static block size in tuples (ctl-profiles adapts its
	// own; block is then only the verification pass's size).
	block int
	// cacheBytes > 0 gives every backend a blockcache of that size.
	cacheBytes int64
	// gateway fronts two replicated backends with gateway.New.
	gateway bool
	// push switches the client to the server-push transport.
	push bool
	// oneWayDelay > 0 routes the client through the delay proxy.
	oneWayDelay time.Duration
	// ingest runs an open-loop writer beside the reader.
	ingest bool
	// ctl replaces the static controller with core.NewHybrid against
	// priced (never slept) netsim profiles.
	ctl bool
	// yardstick scales the wall-clock figures by the machine's measured
	// loopback ping-pong speed (see yardstick.go). It is set where a block
	// is little more than such a ping-pong, so the two slow down together.
	yardstick bool
	// byHand keeps the workload out of BENCHMARK.json: the driver's time
	// limit pays for four workloads at a run length that is steady, and
	// these three are the ones whose figures another of the four covers or
	// that spread widest. `--workload <name>` still runs them.
	byHand bool
}

const (
	// ingestPeriod and ingestRows fix the open-loop writer's offered
	// load: 10 blocks/s of 128 rows.
	ingestPeriod = 100 * time.Millisecond
	ingestRows   = 128
	// replicaLogRecords is the per-backend replication log depth on the
	// gateway workload. The log retains every shipped block's payload;
	// at block 2048 a deep log holds gigabytes and the run measures GC.
	replicaLogRecords = 256
)

var workloads = []workload{
	{
		name: "cold-xmlgz", codec: "xml+gzip", table: "customer", block: 512,
		why: "paper's SOAP path: xml encode/decode and gzip do nearly all the work; where a codec or compression change must show",
	},
	{
		name: "cold-binary", codec: "binary", table: "customer", block: 512, byHand: true,
		why: "same pull path with a cheap codec: minidb scan, binary encode/arena decode, per-block HTTP; an xml change must not move it",
	},
	{
		name: "hot-binary-small", codec: "binary", table: "customer", block: 64, cacheBytes: 64 << 20, yardstick: true,
		why: "warm cache and the smallest block: scan and encode are bypassed, so fixed per-block handler, net/http and client cost is everything",
	},
	{
		name: "gate-hot-binary", codec: "binary", table: "orders", block: 2048, cacheBytes: 64 << 20, gateway: true,
		why: "via the gateway over two warm replicated backends: the proxy hop and replication shipping dominate, scan/encode are bypassed",
	},
	{
		name: "push-rtt", codec: "binary", table: "customer", block: 256, push: true, oneWayDelay: 5 * time.Millisecond,
		why: "push transport through a 10 ms RTT delay proxy: throughput is set by window x block / RTT and credit handling, not CPU",
	},
	{
		name: "mixed-ingest", codec: "binary", table: "customer", block: 512, cacheBytes: 64 << 20, ingest: true, byHand: true,
		why: "reads beside an open-loop 10 blocks/s writer: each ingest bumps the dataset version, so cache fill/invalidate and server decode run",
	},
	{
		name: "ctl-profiles", codec: "binary", block: 200, ctl: true, byHand: true,
		why: "the hybrid controller against priced conf1.1/conf2.2/conf1.3/shift profiles: adaptive block sizes on the pull path, cost ratio per layer",
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one reported metric. bound is the relative worsening
// that counts as a regression (end-to-end metrics only).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics a user of the system sees; every one is
// defined and non-zero on every workload. BENCHMARK.json mirrors this
// table (a test keeps them equal). The bounds are the contract's widest:
// the shared 2-core sandbox's speed wanders by ±15 % over tens of
// seconds (see README "Steadiness"), and a bound must sit well above
// what ten runs of the same code spread by.
//
// The median block wait and the CPU cost per tuple, which the issue also
// listed here, are per-layer (client.next_ms_p50, proc.cpu_ms_per_ktuple):
// on the delay-bound workload the first is the ~0.1 ms between frames of
// one window and the second is mostly idle wake-ups and GC of the static
// dataset, both spread past any bound there, and on the closed-loop
// workloads they say what tuples_per_s already says. The tail is read at
// the 90th percentile, not the issue's 95th (per-layer,
// client.next_ms_p95): where the gateway workload's distribution climbs
// from 2 ms to 10 ms, ten runs put the 95th 11 % apart and the 90th 6 %.
var endToEnd = []metricDef{
	{"tuples_per_s", "tuples/s", "higher", 0.25},
	{"block_p90_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, one module per prefix. A metric
// that does not apply to a workload (gateway.* on a direct stack) reads 0.
var perLayer = []metricDef{
	{"client.next_ms_p50", "ms", "lower", 0},
	{"client.next_ms_p95", "ms", "lower", 0},
	{"client.next_ms_p99", "ms", "lower", 0},
	{"client.self_ms_per_block", "ms", "lower", 0},
	{"client.http_ms_per_block", "ms", "lower", 0},
	{"client.open_close_ms_per_query", "ms", "lower", 0},
	{"client.stalled_next_frac", "frac", "lower", 0},
	{"client.retries", "count", "lower", 0},
	{"client.replays", "count", "lower", 0},
	{"wire.encode_ms_per_block", "ms", "lower", 0},
	{"wire.decode_ms_per_block", "ms", "lower", 0},
	{"wire.gzip_share", "frac", "lower", 0},
	{"wire.bytes_per_tuple", "B", "lower", 0},
	{"wire.allocs_per_block", "count", "lower", 0},
	{"minidb.scan_us_per_block", "us", "lower", 0},
	{"blockcache.hit_ratio", "frac", "higher", 0},
	{"blockcache.get_us", "us", "lower", 0},
	{"blockcache.misses", "count", "lower", 0},
	{"blockcache.evictions", "count", "lower", 0},
	{"blockcache.resident_mb", "MB", "lower", 0},
	{"service.next_ms_per_block", "ms", "lower", 0},
	{"service.self_ms_per_block", "ms", "lower", 0},
	{"service.create_ms", "ms", "lower", 0},
	{"service.ingest_ms_per_block", "ms", "lower", 0},
	{"service.credit_grants_per_block", "count", "lower", 0},
	{"service.credit_stalls_per_block", "count", "lower", 0},
	{"service.blocks_replayed", "count", "lower", 0},
	{"service.sessions_shed", "count", "lower", 0},
	{"gateway.next_ms_per_block", "ms", "lower", 0},
	{"gateway.upstream_ms_per_block", "ms", "lower", 0},
	{"gateway.self_ms_per_block", "ms", "lower", 0},
	{"gateway.failovers", "count", "lower", 0},
	{"gateway.fallback_replays", "count", "lower", 0},
	{"replica.feed_busy_frac", "frac", "lower", 0},
	{"replica.lag_records_max", "count", "lower", 0},
	{"core.decide_us_per_block", "us", "lower", 0},
	{"core.cost_ratio.conf1.1", "ratio", "lower", 0},
	{"core.cost_ratio.conf2.2", "ratio", "lower", 0},
	{"core.cost_ratio.conf1.3", "ratio", "lower", 0},
	{"core.cost_ratio.shift", "ratio", "lower", 0},
	{"core.settle_blocks", "count", "lower", 0},
	{"ctl_cost_ratio", "ratio", "lower", 0},
	{"ingest_p50_ms", "ms", "lower", 0},
	{"proc.cpu_ms_per_ktuple", "ms", "lower", 0},
	{"proc.alloc_bytes_per_tuple", "B", "lower", 0},
	{"proc.allocs_per_block", "count", "lower", 0},
	{"proc.gc_pause_ms_per_s", "ms/s", "lower", 0},
	{"proc.peak_heap_mb", "MB", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
	{"trace.unattributed_frac", "frac", "lower", 0},
}
