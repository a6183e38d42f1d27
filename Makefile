GO ?= go

.PHONY: all build vet test race fuzzseeds stress allocgate bench-smoke slo-sim chaos-gate cache-gate push-chaos benchtrend verify chaos bench bench-contention bench-wire bench-vector bench-slo bench-gate bench-cache bench-push clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzzseeds replays the checked-in fuzz seed corpora (no new input
# generation) so a codec or parser regression on a known-nasty input
# fails the gate deterministically.
fuzzseeds:
	$(GO) test -run '^Fuzz' ./internal/wire ./internal/minidb ./internal/blockcache ./internal/service ./internal/replica

# stress runs the concurrency gate: the hot-path stress tests (sharded
# session store, atomic stats, expiry janitor vs pulls) under -race,
# plus the e2e run that drives a race-built wsblockd with wsload.
stress:
	$(GO) test -race -count=1 -run '^TestStress' ./internal/service/... ./internal/e2e/...

# allocgate runs the allocation regression gates WITHOUT the race
# detector (instrumentation would inflate the counts): a binary-codec
# block round-trip must stay within its per-block allocation budget, and
# so must one block proxied through the gateway hop.
allocgate:
	$(GO) test -count=1 -run '^TestBinaryRoundTripAllocGate$$' ./internal/wire
	$(GO) test -count=1 -run '^TestGatewayHopAllocGate$$' ./internal/gateway

# bench-smoke compiles, vets and tests the nested bench/ module, which
# `build`, `vet` and `test` do not descend into although it imports
# internal/replica, internal/gateway and internal/service: an internal
# API change that breaks the benchmark must fail the PR that makes it.
# CI runs it as its own step; it is not part of `verify`.
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# slo-sim runs the deterministic coupled-loop control suite under
# -race: regulator unit behaviour (tracking, clamping, anti-windup,
# seeded determinism) plus the coupled client-vs-admission scenarios,
# including the mis-tuned-gain oscillation regression.
slo-sim:
	$(GO) test -race -count=1 ./internal/regulator
	$(GO) test -race -count=1 -run '^TestCoupledLoop' ./internal/sim

# chaos-gate runs the gateway failover gates: the deterministic sim
# scenario (a converged controller must re-converge after a transparent
# failover to a differently-loaded replica) and the e2e chaos run
# (SIGKILL of the measured session's primary under wsload — exact tuple
# totals, no duplicate keys, bounded stall, zero client-side failovers,
# replication lag drained on the survivors).
chaos-gate:
	$(GO) test -race -count=1 -run '^TestFailover' ./internal/sim
	$(GO) test -count=1 -run '^TestChaosGate$$' ./internal/e2e

# cache-gate runs the encoded-block cache gates: the blockcache package
# (LRU/disk/single-flight/refcount semantics) and the service cache
# wiring, close-race ownership handoff, and standby-copy invariants
# under -race, then the e2e cache-hot chaos arm (SIGKILL of a primary
# with every backend's cache warm — exact tuples, warm-hit failover).
cache-gate:
	$(GO) test -race -count=1 ./internal/blockcache
	$(GO) test -race -count=1 -run 'TestCache|TestCloseRace' ./internal/service
	$(GO) test -race -count=1 -run '^TestStandby' ./internal/replica
	$(GO) test -count=1 -run '^TestChaosGateCache$$' ./internal/e2e

# push-chaos runs the push transport gates: the service-side push
# protocol suite (framing, backpressure, unacked-tail replay, cache
# serve) and the client stream transport suite (resume, session re-open,
# failover, controller-driven window) under -race, then the e2e chaos
# run — SIGKILL of the replica serving a live push stream with unacked
# frames in flight; the query must still deliver the exact relation
# through a stream reconnect and a session failover to the survivor.
push-chaos:
	$(GO) test -race -count=1 -run 'TestPush|TestStream|TestRunPush' ./internal/service ./internal/client
	$(GO) test -count=1 -run '^TestChaosPush$$' ./internal/e2e

# verify is the tier-1 gate: everything must build, vet clean, pass
# under the race detector, survive the fuzz seed corpora, hold up under
# the concurrency stress gate, keep the wire hot path within its
# allocation budget, keep the coupled control loops stable, and survive
# the gateway chaos gate, the encoded-block cache gate, and the push
# transport chaos gate.
verify: build vet race fuzzseeds stress allocgate slo-sim chaos-gate cache-gate push-chaos

# benchtrend folds the committed BENCH_*.json reports into one
# trajectory file (BENCH_trend.json) and gates the wire hot path: a live
# re-measurement of binary-codec encode+decode throughput must stay
# within 20% of the committed BENCH_wire.json baseline.
benchtrend:
	$(GO) run ./cmd/benchtrend -json BENCH_trend.json

# chaos runs just the fault-injection exactly-once tests.
chaos:
	$(GO) test -race ./internal/client -run Chaos -v

bench:
	$(GO) test -bench=. -benchmem

# bench-contention records raw server-side block throughput at 1, 4 and
# 8 parallel clients (no injected delays) into BENCH_contention.json —
# the number that moves when hot-path locking changes.
bench-contention:
	$(GO) run ./cmd/wsbench -contention 1,4,8 -sf 0.01 -json BENCH_contention.json

# bench-wire records raw codec throughput (encode + scratch-decode, no
# transport) for every codec at three block sizes into BENCH_wire.json,
# and runs the Go codec benchmarks with allocation reporting — the
# numbers that move when the wire hot path's allocation behaviour
# changes.
bench-wire:
	$(GO) run ./cmd/wsbench -wire 64,512,4096 -sf 0.1 -json BENCH_wire.json
	$(GO) test -run '^$$' -bench 'BenchmarkCodecRoundTrip|BenchmarkBinaryDecodeScratch' -benchmem ./internal/wire

# bench-vector records the multi-dimensional controller sweep into
# BENCH_vector.json: the coordinate-descent vector controller against
# the single-knob hybrid, plus warm-started and cold-started variants,
# on scenarios whose optima live in different dimensions — the numbers
# that move when the vector control loop or the profile store changes.
bench-vector:
	$(GO) run ./cmd/wsbench -vector -json BENCH_vector.json

# bench-slo records the SLO-regulation sweep into BENCH_slo.json: the
# coupled-loop scenarios run under a static admission ceiling and under
# both regulator laws — the contrast that shows the regulator holding
# the p95 SLO where static -max-sessions misses it.
bench-slo:
	$(GO) run ./cmd/wsbench -slo -json BENCH_slo.json

# bench-gate records the gateway sweep into BENCH_gate.json: the same
# full scan pulled direct from a backend, through the gateway, and
# through the gateway with a mid-scan primary kill — the numbers that
# move when the proxy hop or the failover path changes. Every arm must
# deliver the exact relation, so the sweep doubles as a correctness
# check.
bench-gate:
	$(GO) run ./cmd/wsbench -gate -sf 0.01 -json BENCH_gate.json

# bench-push records the pull-vs-push transport sweep into
# BENCH_push.json: the same data and link cost structure measured
# through both transports over a static-size grid plus adaptive arms on
# the high-RTT reference link. The sweep gates itself: push must be
# >= 1.5x pull at the pull arm's own optimum size, with the push
# optimum at a strictly smaller size.
bench-push:
	$(GO) run ./cmd/wsbench -push -sf 0.05 -codec binary -json BENCH_push.json

# bench-cache records the encoded-block cache sweep into
# BENCH_cache.json: hot (cached) vs cold full-table scan throughput for
# every codec — the numbers that move when the cache's hit path or the
# serve path's scan+encode cost changes.
bench-cache:
	$(GO) run ./cmd/wsbench -cache -sf 0.05 -json BENCH_cache.json

clean:
	$(GO) clean ./...
