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

gate_race() { $GO test -race ./...; }

# Replay the checked-in fuzz seed corpora (deterministic, no new input
# generation), so a codec or parser regression on a known-nasty input
# fails the gate.
gate_fuzzseeds() {
	$GO test -run '^Fuzz' ./internal/wire ./internal/minidb ./internal/blockcache ./internal/service ./internal/replica
}

# Concurrency gate: the hot-path stress tests (sharded session store,
# atomic stats, expiry janitor vs pulls) under -race, plus the e2e run
# that drives a race-built wsblockd with concurrent wsload.
gate_stress() {
	$GO test -race -count=1 -run '^TestStress' ./internal/service/... ./internal/e2e/...
}

# Allocation gates, WITHOUT the race detector (instrumentation would
# inflate the counts): a binary-codec block round-trip, an XML block
# decode and one block proxied through the gateway hop must each stay
# within their per-block allocation budget.
gate_allocgate() {
	$GO test -count=1 -run '^(TestBinaryRoundTripAllocGate|TestXMLDecodeAllocGate)$' ./internal/wire
	$GO test -count=1 -run '^TestGatewayHopAllocGate$' ./internal/gateway
}

# Coupled-loop control gate: regulator unit behaviour (tracking,
# clamping, anti-windup, seeded determinism) plus the deterministic
# client-vs-admission stability scenarios under -race, including the
# mis-tuned-gain oscillation regression.
gate_slo_sim() {
	$GO test -race -count=1 ./internal/regulator
	$GO test -race -count=1 -run '^TestCoupledLoop' ./internal/sim
}

# Gateway chaos gate: the deterministic sim scenario (a converged
# controller must re-converge after a transparent failover to a
# differently-loaded replica) and the e2e SIGKILL of the measured
# session's primary under wsload — exact tuple totals, no duplicate
# keys, bounded stall, zero client-side failovers, replication lag
# drained on the survivors.
gate_chaos_gate() {
	$GO test -race -count=1 -run '^TestFailover' ./internal/sim
	$GO test -count=1 -run '^TestChaosGate$' ./internal/e2e
}

# Encoded-block cache gate: blockcache semantics (LRU/disk/single-flight/
# refcount), the service's cache wiring and close-race ownership
# handoff, and the standby-copy invariant under -race, then the e2e
# cache-hot chaos arm (SIGKILL of a primary with every backend's cache
# warm — exact tuples, warm-hit failover).
gate_cache_gate() {
	$GO test -race -count=1 ./internal/blockcache
	$GO test -race -count=1 -run 'TestCache|TestCloseRace' ./internal/service
	$GO test -race -count=1 -run '^TestStandby' ./internal/replica
	$GO test -count=1 -run '^TestChaosGateCache$' ./internal/e2e
}

# Push transport chaos gate: the service push protocol suite (framing,
# backpressure, unacked-tail replay, cache serve) and the client stream
# transport suite (resume, session re-open, failover, controller-driven
# window) under -race, then the e2e SIGKILL of the replica serving a
# live push stream with unacked frames in flight — exact tuples across
# the stream reconnect and the failover to the survivor.
gate_push_chaos() {
	$GO test -race -count=1 -run 'TestPush|TestStream|TestRunPush' ./internal/service ./internal/client
	$GO test -count=1 -run '^TestChaosPush$' ./internal/e2e
}

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
