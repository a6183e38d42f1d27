#!/bin/sh
# The tier-1 gates, listed once. `scripts/verify.sh` runs every gate in
# order (that is `make verify`); `scripts/verify.sh GATE...` runs the
# named ones. The Makefile gate targets and the CI steps are one-line
# calls of this script: what a gate runs is spelled out only here.
set -eu

cd "$(dirname "$0")/.."
GO=${GO:-go}

gates="build vet results race fuzzseeds stress allocgate slo-sim chaos-gate cache-gate push-chaos"

gate_build() { $GO build ./...; }

gate_vet() {
	$GO vet ./...
	unformatted=$(gofmt -l .)
	[ -z "$unformatted" ] || {
		echo "gofmt -l names: $unformatted" >&2
		return 1
	}
	check_owned
	check_capabilities
	check_retained
	check_codec_goroutines
	check_block_headers
	check_create_body
	check_docs
}

# check_docs holds DESIGN.md to a byte ceiling: a change that does not add
# a tier leaves it no larger than it found it, and one that adds a tier
# raises the number here in the same diff.
design_ceiling=137968
check_docs() {
	size=$(wc -c <DESIGN.md)
	[ "$size" -le "$design_ceiling" ] || {
		echo "verify.sh: DESIGN.md is $size bytes, over its ceiling of $design_ceiling (scripts/verify.sh)" >&2
		return 1
	}
}

# check_capabilities fails when a non-test file outside internal/core
# type-asserts a controller capability. A runner reaches a controller's
# disturbance reaction, phase, operating point and size promise through
# core.NotifyDisturbance, core.PhaseOf, core.VectorOf and core.HoldsSize,
# which walk the Unwrap chain; an assertion on the controller in hand
# misses whatever a wrapper drives. (Like check_owned it checks the tree,
# not behaviour.)
check_capabilities() {
	found=$(grep -rnE --include='*.go' --exclude='*_test.go' \
		'\.\((core\.(Disturber|Resetter|Windower)|interface ?\{ ?(Vector|Window|PhaseSwitches|InSteadyState|Unwrap|Disturb|Reset|Holds[A-Za-z]*)\(\))' . |
		grep -v '^\./internal/core/' || true)
	[ -z "$found" ] || {
		echo "verify.sh: controller capability asserted outside internal/core (use core.NotifyDisturbance/PhaseOf/VectorOf/HoldsSize):" >&2
		echo "$found" >&2
		return 1
	}
}

# check_retained fails when a non-test file outside internal/blockcache
# declares a sync.Pool of *bytes.Buffer. A block that outlives its call
# is a blockcache.Entry, whose one pool (blockcache.Buffer) recycles a
# buffer only on the block's last release; a second pool would bring
# back a second ownership rule and a second leak count. (Like
# check_capabilities it checks the tree, not behaviour: a pool whose New
# names bytes.Buffer within two lines of sync.Pool.)
check_retained() {
	found=$(grep -rnE -A2 --include='*.go' --exclude='*_test.go' 'sync\.Pool *\{' . |
		grep -E 'bytes\.Buffer' | grep -v '^\./internal/blockcache/' || true)
	[ -z "$found" ] || {
		echo "verify.sh: a pool of block buffers outside internal/blockcache (use blockcache.Buffer and a retained blockcache.Entry):" >&2
		echo "$found" >&2
		return 1
	}
}

# check_codec_goroutines fails when a non-test file under internal/wire
# starts a goroutine. Block-level concurrency lives in the service's
# read-ahead, which encodes a promising pull's next blocks off the
# handler; a codec that starts goroutines of its own competes with it for
# the same cores. (Like check_retained it checks the tree, not
# behaviour: a line that begins with a go statement.)
check_codec_goroutines() {
	found=$(grep -rnE --include='*.go' --exclude='*_test.go' '^[[:space:]]*go[[:space:]]' internal/wire || true)
	[ -z "$found" ] || {
		echo "verify.sh: a goroutine started in internal/wire (block-level concurrency belongs to the service's read-ahead):" >&2
		echo "$found" >&2
		return 1
	}
}

# check_block_headers fails when a non-test file sets an X-Block-,
# X-Injected- or X-WSGate- header outside internal/service/blockmeta.go
# and the ingest ack (internal/service/ingest.go). A block's metadata
# travels in its frame header (wire.Frame), on /next as on /stream; a
# header that carries it again is a second encoding of one fact, and a
# per-block cost. (Like check_codec_goroutines it checks the tree, not
# behaviour: a Set, Add or map assignment whose key is one of them, by
# constant or literal, or a header map handed to a method that writes
# them, `.WriteHeader(h)`.)
check_block_headers() {
	found=$(grep -rnE --include='*.go' --exclude='*_test.go' \
		'(\.(Set|Add)\(|\[) *(service\.)?(Header(Block|InjectedDelay|Gateway)[A-Za-z]*|"X-(Block|Injected|WSGate)-)|\.WriteHeader\(h\)' . |
		grep -vE '^\./internal/service/(blockmeta|ingest)\.go:' || true)
	[ -z "$found" ] || {
		echo "verify.sh: a block header set outside internal/service/blockmeta.go and the ingest ack (a block's metadata travels in its frame):" >&2
		echo "$found" >&2
		return 1
	}
}

# check_create_body fails when a non-test file outside internal/service
# declares a `json:"stream_group` tag. The body of POST /sessions is
# service.Create on every tier, parsed by service.ParseCreate; a second
# declaration of it is a second parse that can disagree (the gateway's
# own once let a body the backends refuse through, and answered it 502).
# (Like check_block_headers it checks the tree, not behaviour.)
check_create_body() {
	found=$(grep -rn --include='*.go' --exclude='*_test.go' 'json:"stream_group' . |
		grep -v '^\./internal/service/' || true)
	[ -z "$found" ] || {
		echo "verify.sh: a create-body field declared outside internal/service (the one create body is service.Create):" >&2
		echo "$found" >&2
		return 1
	}
}

# Committed-numbers gate: every experiment is deterministic per seed, so
# results/ must be exactly what the code prints. Regenerate all of them
# into a scratch directory and compare; a difference is either an
# unintended change of behaviour or a results/ that was not re-recorded
# (`go run ./cmd/labrunner -out results`).
gate_results() {
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	$GO run ./cmd/labrunner -out "$tmp"
	diff -r results "$tmp"
}

# Ownership: every row gives one gate a set of tests — a -run pattern in
# some packages, built with or without the race detector. A test a row
# selects is run by that gate and no other: the race gate is `go test -race
# ./...` MINUS every row (per package, via -skip), so each test in the
# tree is selected by exactly one gate and a failure names the gate that
# owns it. Two rows must not select the same test of one package
# (check_owned, in the vet gate, refuses a table where they do).
#
#   gate     detector  -run pattern              packages
owned='
fuzzseeds   -race    ^Fuzz                        ./internal/wire ./internal/minidb ./internal/blockcache ./internal/service ./internal/replica ./internal/gateway ./internal/client
stress      -race    ^TestStress                  ./internal/service ./internal/e2e
allocgate   -norace  ^(TestBinaryRoundTripAllocGate|TestBinaryViewAllocGate|TestXMLDecodeAllocGate|TestGzipEncodeAllocGate)$ ./internal/wire
allocgate   -norace  ^TestGatewayHopAllocGate$    ./internal/gateway
allocgate   -norace  ^(TestPullAllocGate|TestFramedBlockAllocGate)$ ./internal/client
allocgate   -norace  ^(TestShipCommitAllocGate|TestReadAheadAllocGate)$ ./internal/service
allocgate   -norace  ^TestDeadlineForDoesNotAllocate$ ./internal/resilience
allocgate   -norace  ^TestLoadAllocGate$          ./internal/tpch
slo-sim     -race    ^Test                        ./internal/regulator
slo-sim     -race    ^TestCoupledLoop             ./internal/sim
chaos-gate  -race    ^TestFailover                ./internal/sim
chaos-gate  -norace  ^TestChaosGate$              ./internal/e2e
cache-gate  -race    ^Test                        ./internal/blockcache
cache-gate  -race    TestCache|TestCloseRace      ./internal/service
cache-gate  -race    ^TestStandby                 ./internal/replica
cache-gate  -norace  ^TestChaosGateCache$         ./internal/e2e
push-chaos  -race    TestPush|TestStream|TestRunPush|TestCreatingOpen|TestVectorChunkSessions ./internal/service ./internal/client
push-chaos  -norace  ^TestChaosPush$              ./internal/e2e
'

# check_owned fails when two rows select the same test of one package
# (part of the vet gate: it checks this script, not the code).
check_owned() {
	for pkg in $(echo "$owned" | awk '{for (i = 4; i <= NF; i++) print $i}' | sort -u); do
		rows=$(echo "$owned" | awk -v p="$pkg" '{for (i = 4; i <= NF; i++) if ($i == p) print $1 "=" $3}')
		$GO test -list . "$pkg" | grep -E '^(Test|Fuzz)' | awk -v pkg="$pkg" -v rows="$rows" '
			BEGIN { n = split(rows, row, "\n") }
			{
				owners = ""; c = 0
				for (i = 1; i <= n; i++) { split(row[i], kv, "="); if ($0 ~ kv[2]) { c++; owners = owners " " kv[1] } }
				if (c > 1) { print "verify.sh: " pkg " " $0 " is selected by" owners; bad = 1 }
			}
			END { exit bad }' >&2
	done
}

# run_owned GATE runs the gate's rows, in order (tracing the commands it
# runs, not the loop that finds them).
run_owned() {
	{ set +x; } 2>/dev/null
	echo "$owned" | while read -r gate detector pattern pkgs; do
		[ "$gate" = "$1" ] || continue
		flags=-count=1
		[ "$detector" = -race ] && flags="-race -count=1"
		echo "+ $GO test $flags -run '$pattern' $pkgs" >&2
		$GO test $flags -run "$pattern" $pkgs
	done
}

# Everything no other gate owns, under the race detector. -skip holds for
# a whole `go test` invocation, so a package with owned tests is an
# invocation of its own, skipping what its owners select, and the rest are
# one batch (which skips nothing: no test is named ""). The invocations
# run as many at a time as there are processors — what `go test ./...`
# would have done with the packages. race_jobs prints one invocation per
# line: its -skip pattern, then its packages.
race_jobs() {
	batch='^$' jobs=""
	for pkg in $($GO list ./... | sed 's|^wsopt|.|'); do
		skip=$(echo "$owned" | awk -v p="$pkg" '{for (i = 4; i <= NF; i++) if ($i == p) print $3}' | paste -sd '|' -)
		if [ -n "$skip" ]; then
			jobs="$jobs$skip $pkg
"
		else
			batch="$batch $pkg"
		fi
	done
	printf '%s\n%s' "$batch" "$jobs" # the batch first: it is the longest
}

gate_race() {
	race_jobs | GO="$GO" xargs -L 1 -P "$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 2)" \
		sh -xc 'skip=$1; shift; $GO test -race -skip "$skip" "$@"' sh
}

# Replay the checked-in fuzz seed corpora (deterministic, no new input
# generation), so a codec or parser regression on a known-nasty input
# fails the gate.
gate_fuzzseeds() { run_owned fuzzseeds; }

# Concurrency gate: the hot-path stress tests (sharded session store,
# atomic stats, expiry janitor vs pulls, DELETE racing a commit), plus the
# e2e runs that drive a race-built wsblockd with concurrent wsload.
gate_stress() { run_owned stress; }

# Allocation gates, WITHOUT the race detector (instrumentation would
# inflate the counts): a binary-codec block round-trip, a binary block's
# index pass, an XML block decode, an xml+gzip block encode, one block
# proxied through the gateway hop, one block pulled and one pushed to the
# client, the deadline it is pulled under, one commit shipped to the
# replication log and one pull the server read ahead for must each stay
# within their per-block allocation budget; generating the TPC-H catalog
# at sf 0.2 and loading a saved table, within theirs per dataset.
# The wire kernel benchmarks and the TPC-H generation benchmark then run
# one iteration each: no other gate runs a benchmark body, so a failing
# setup or assertion in one would go unseen.
gate_allocgate() {
	run_owned allocgate
	$GO test -run '^$' -bench . -benchtime 1x ./internal/wire ./internal/tpch
}

# Coupled-loop control gate: regulator unit behaviour (tracking,
# clamping, anti-windup, seeded determinism) plus the deterministic
# client-vs-admission stability scenarios, including the mis-tuned-gain
# oscillation regression.
gate_slo_sim() { run_owned slo-sim; }

# Gateway chaos gate: the deterministic sim scenario (a converged
# controller must re-converge after a transparent failover to a
# differently-loaded replica) and the e2e SIGKILL of the measured
# session's primary under wsload — exact tuple totals, no duplicate
# keys, bounded stall, zero client-side failovers, replication lag
# drained on the survivors.
gate_chaos_gate() { run_owned chaos-gate; }

# Encoded-block cache gate: blockcache semantics (LRU/disk/single-flight/
# refcount), the service's cache wiring and close-race ownership
# handoff, and the standby-copy invariant, then the e2e cache-hot chaos
# arm (SIGKILL of a primary with every backend's cache warm — exact
# tuples, warm-hit failover).
gate_cache_gate() { run_owned cache-gate; }

# Push transport chaos gate: the service push protocol suite (framing,
# backpressure, unacked-tail replay, cache serve) and the client stream
# transport suite (resume, session re-open, failover, controller-driven
# window), then the e2e SIGKILL of the replica serving a live push stream
# with unacked frames in flight — exact tuples across the stream
# reconnect and the failover to the survivor.
gate_push_chaos() { run_owned push-chaos; }

[ $# -gt 0 ] || set -- $gates
for g; do
	case " $gates " in
	*" $g "*) ;;
	*)
		echo "verify.sh: unknown gate '$g' (gates: $gates)" >&2
		exit 2
		;;
	esac
done
# Each gate's wall seconds and the total are printed at the end: the
# figure a CHANGES.md line records next to scripts/size.sh's, so that
# what verification costs has a trajectory too.
began=$(date +%s)
took=""
for g; do
	fn="gate_$(echo "$g" | tr - _)"
	echo "== gate: $g"
	start=$(date +%s)
	(
		set -x
		"$fn"
	)
	took="$took$(printf '%-11s %5ds' "$g" $(($(date +%s) - start)))
"
done
echo "== wall seconds per gate"
printf '%s%-11s %5ds\n' "$took" total $(($(date +%s) - began))
