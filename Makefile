GO ?= go

GATES = build vet results race fuzzseeds stress allocgate slo-sim chaos-gate cache-gate push-chaos

.PHONY: all $(GATES) verify test bench-smoke chaos bench clean

all: verify

# verify is the tier-1 gate: every gate of scripts/verify.sh, in its
# order. That script is the one place a gate's commands are spelled out,
# and it gives every test to exactly one gate (`race` runs what no other
# gate owns); each gate is also a target of its own (`make stress`).
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

# chaos runs just the fault-injection exactly-once tests.
chaos:
	$(GO) test -race ./internal/client -run Chaos -v

bench:
	$(GO) test -bench=. -benchmem

clean:
	$(GO) clean ./...
