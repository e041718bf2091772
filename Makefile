GO ?= go

.PHONY: all vet build test bench-module allocs race race-recovery race-catchup race-membership race-reshard race-frontdoor race-hlc race-chaos check bench

all: check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest-source) order every run, keeping
# the suites free of inter-test ordering dependencies.
test:
	$(GO) test -shuffle=on ./...

# bench/ is a module of its own (the benchmark the driver runs), so ./...
# above does not reach it; it compiles against this module's exported API.
bench-module:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# The structural performance guards: allocation counts (testing.AllocsPerRun)
# on the GET/PUT hot path, the RO-TX fan-out, a blocked request's park + wake,
# the netemu link queue, the durable insert (single and batched), the
# replication batch decode, the front-door request decode, and a pooled round
# trip from both ends (client side against an echo server, server side against
# the same operation in process), plus the replicated-apply heap retention
# bound. Counts do not depend on host speed, so unlike wall-clock
# ratios they are asserted on every run (-count=1: never from the test cache).
allocs:
	$(GO) test -count=1 -run 'Allocs|Retention' ./internal/...

# CI runs the race-* targets below by name (.github/workflows/ci.yml), so a
# guard added to a recipe here is added there too.
#
# Guards the fine-grained server locking: the packages that own or exercise
# the lock-free hot path must stay race-clean — including the recycled RO-TX
# fan-in state and waiters, driven end to end by the sessions' RO-TX tests.
race:
	$(GO) test -race -count=1 ./internal/core/... ./internal/storage/... ./internal/wal/... ./internal/tcpnet/... ./internal/netemu/...
	$(GO) test -race -count=1 -run 'ROTx' ./internal/client/ ./internal/cluster/

# Guards durability: the crash-recovery scenarios (mid-workload server
# restarts, cold restarts, the recovery drill) must stay race-clean too.
race-recovery:
	$(GO) test -race -count=1 -run 'Recovery|Durable' ./internal/cluster/... ./internal/harness/... .

# Guards the replication plane: sequenced streams, gap detection and
# WAL-shipped catch-up (crashed buffer tails, dropped links) under -race.
race-catchup:
	$(GO) test -race -count=1 -run 'CatchUp' ./internal/repl/... ./internal/cluster/...

# Guards dynamic membership: DC joins bootstrapped by catch-up under a live
# causally-checked workload, graceful leaves, and the stabilization gate.
race-membership:
	$(GO) test -race -count=1 -run 'Membership|Join|Leave' ./internal/repl/... ./internal/cluster/... .

# Guards elastic resharding: slot-table epochs, live partition splits and
# slot moves under a checked workload (drain-then-flip, WAL bootstrap of the
# new owner, client retry through the epoch fence) under -race.
race-reshard:
	$(GO) test -race -count=1 -run 'Split|MoveSlots|Slot|Reshard' ./internal/keyspace/... ./internal/cluster/... ./internal/kvserver/...

# Guards the binary front door: the pipelined serving path (per-session FIFO
# workers, out-of-order completion across sessions, single coalescing writer)
# and the client pool (in-flight table, multiplexed sessions) under -race,
# including the blocked-GET no-stall and restart/reshard churn scenarios and
# the leased request frames (a parked GET keeps its frame, a PUT and an RO-TX
# keep nothing of theirs, a large frame is not kept at all).
race-frontdoor:
	$(GO) test -race -count=1 -run 'FrontDoor|TextLarge' ./internal/kvserver/ ./internal/client/ ./internal/wire/

# Guards the hybrid-clock plane: HLC packing/merge properties, the negative
# -skew clamp regression, the lean watermark stabilization safety rule, the
# skew-insensitive PUT clock-wait, and the visibility probe — under -race
# (the clock's CAS loop and Observe path run on every hot-path message).
race-hlc:
	$(GO) test -race -count=1 -run 'HLC|ClockSkew|Skew|Watermark|Visibility|NegativeSkew' ./internal/clock/... ./internal/vclock/... ./internal/core/... ./internal/cluster/... ./internal/harness/...

# The chaos plane: a ~30 s seeded fault-injection soak (crash/restarts,
# DC kills + forced removal, join/leave churn, link flaps, latency
# reprofiles) with live causal checking, under -race. Override CHAOS_SEED to
# replay a reported failure, CHAOS_SECONDS to change the soak length.
race-chaos:
	CHAOS_SECONDS=$${CHAOS_SECONDS:-30} $(GO) test -race -count=1 -v -run 'TestChaosSoak' ./internal/chaos/

check: vet build test bench-module allocs race race-recovery race-catchup race-membership race-reshard race-frontdoor race-hlc race-chaos

# Hot-path microbenchmarks (the numbers tracked across PRs), published as a
# dated JSON trajectory: `make bench` runs the Fig-adjacent cluster
# benchmarks plus the durable-path and catch-up-seek ones and writes
# BENCH_<date>.json via cmd/benchjson (commit it to extend the trajectory).
BENCH_DATE ?= $(shell date +%F)
BENCH_OUT  ?= BENCH_$(BENCH_DATE).json
bench:
	{ \
	  $(GO) test -run '^$$' -bench 'BenchmarkGetPOCC|BenchmarkPutPOCC|BenchmarkROTxPOCC|BenchmarkCatchUpThroughput|BenchmarkDurablePut|BenchmarkCatchUpSmallGap|BenchmarkReshardThroughput|BenchmarkRemoteVisibility' -benchmem . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkWireCodec' -benchmem ./internal/wire/ && \
	  $(GO) test -run '^$$' -bench 'BenchmarkFrontDoorText|BenchmarkFrontDoorPipelined|BenchmarkFrontDoorPooled' -benchmem ./internal/kvserver/ && \
	  $(GO) test -run '^$$' -bench 'BenchmarkSlotRouting' -benchmem ./internal/keyspace/ && \
	  $(GO) test -run '^$$' -bench 'BenchmarkVClockOps|BenchmarkStorage' -benchmem ./internal/vclock/ ./internal/storage/ ; \
	} | tee /dev/stderr | $(GO) run ./cmd/benchjson -date $(BENCH_DATE) > $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"
