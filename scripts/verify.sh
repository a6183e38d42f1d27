#!/bin/sh
# Tier-1 verification gate: build, vet, and race-detector tests.
# Same as `make verify`, for environments without make.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
go test -race ./...
# Replay the checked-in fuzz seed corpora (deterministic, no generation).
go test -run '^Fuzz' ./internal/wire ./internal/minidb ./internal/blockcache ./internal/service ./internal/replica
# Concurrency stress gate: hot-path stress tests under -race, including
# the e2e run that drives a race-built wsblockd with concurrent wsload.
go test -race -count=1 -run '^TestStress' ./internal/service/... ./internal/e2e/...
# Allocation gates (no -race: instrumentation inflates the counts): a
# binary-codec block round-trip and one block proxied through the
# gateway hop must each stay within their allocation budget.
go test -count=1 -run '^TestBinaryRoundTripAllocGate$' ./internal/wire
go test -count=1 -run '^TestGatewayHopAllocGate$' ./internal/gateway
# Coupled-loop control gate: regulator unit behaviour plus the
# deterministic client-vs-admission stability scenarios under -race,
# including the mis-tuned-gain oscillation regression.
go test -race -count=1 ./internal/regulator
go test -race -count=1 -run '^TestCoupledLoop' ./internal/sim
# Gateway chaos gate: the deterministic sim failover scenario (a
# converged controller must re-converge after a transparent failover)
# and the e2e SIGKILL-under-load run (exact tuples, no duplicates,
# bounded stall, replication lag drained).
go test -race -count=1 -run '^TestFailover' ./internal/sim
go test -count=1 -run '^TestChaosGate$' ./internal/e2e
# Encoded-block cache gate: blockcache semantics, the service's cache
# wiring and close-race ownership handoff, the standby-copy invariant,
# and the e2e cache-hot chaos arm (exact tuples, warm-hit failover).
go test -race -count=1 ./internal/blockcache
go test -race -count=1 -run 'TestCache|TestCloseRace' ./internal/service
go test -race -count=1 -run '^TestStandby' ./internal/replica
go test -count=1 -run '^TestChaosGateCache$' ./internal/e2e
# Push transport chaos gate: the service push protocol and client stream
# transport suites under -race, then the e2e SIGKILL of the replica
# serving a live push stream (exact tuples across the reconnect and the
# failover to the survivor).
go test -race -count=1 -run 'TestPush|TestStream|TestRunPush' ./internal/service ./internal/client
go test -count=1 -run '^TestChaosPush$' ./internal/e2e
