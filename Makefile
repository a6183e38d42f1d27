GO ?= go

GATES = build vet race fuzzseeds stress allocgate slo-sim chaos-gate cache-gate push-chaos

.PHONY: all $(GATES) verify test bench-smoke benchtrend chaos bench bench-contention bench-wire bench-vector bench-slo bench-gate bench-cache bench-push clean

all: verify

# verify is the tier-1 gate: every gate of scripts/verify.sh, in its
# order. That script is the one place a gate's commands are spelled out;
# each gate is also a target of its own (`make stress`, `make allocgate`).
verify:
	GO="$(GO)" scripts/verify.sh

$(GATES):
	GO="$(GO)" scripts/verify.sh $@

test:
	$(GO) test ./...

# bench-smoke compiles, vets and tests the nested bench/ module, which
# `build`, `vet` and `test` do not descend into although it imports
# internal/replica, internal/gateway and internal/service: an internal
# API change that breaks the benchmark must fail the PR that makes it.
# CI runs it as its own step; it is not part of `verify`.
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

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
