GO ?= go

.PHONY: all vet build loc test bench-module allocs race fuzz check

all: check

# A version is born in internal/item (item.New, item.Slab) and nowhere else:
# a Version literal in other non-test Go of the root module fails the step.
# Every PUT waits for its dependencies: PutDepWait survives only as the
# deprecated cluster.Config field bench/ still sets (ROADMAP arc 4 deletes
# it), so the name anywhere else in the root module's Go, tests included,
# fails the step.
# The log parses no payload: a record is tagged by the code that encodes or
# decodes it, so non-test Go under internal/wal importing a package of this
# module (the engine's formats live there) fails the step.
# Stream framing lives in one place: binary.ReadUvarint, the length-prefix
# read, in non-test Go of the root module outside internal/wire/frame.go
# fails the step.
# A test's knobs are test flags, which reach only the binary they are passed
# to; an exported environment variable reaches every test binary go test
# ./... starts. os.Getenv or os.LookupEnv in a _test.go file of the root
# module fails the step.
# A batch and a heartbeat travel as pointers, which the TCP decoder lends: a
# value literal msg.ReplicateBatch{ or msg.Heartbeat{ without & in the root
# module's Go, tests included, fails the step.
# The transport contract is declared once, in internal/netemu next to NodeID
# and Handler: a Transport interface declared in non-test Go of the root
# module outside internal/netemu fails the step.
# A flush and an idle heartbeat draw their messages from msg's pools, one
# reference per target link: a &msg.ReplicateBatch{ or &msg.Heartbeat{
# literal in non-test Go under internal/repl fails the step.
# Every request the replication plane retries waits through one backoff,
# repl.Manager.nextWait, next to the cap it doubles up to: maxReRequestInterval
# in non-test Go of the root module outside internal/repl/repl.go fails the
# step.
vet:
	$(GO) vet ./...
	@! grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=item 'item\.Version{' .
	@! grep -rn --include='*.go' --exclude-dir=bench 'PutDepWait' . | grep -v '^\./internal/cluster/cluster\.go:'
	@! grep -rn --include='*.go' --exclude='*_test.go' '"$(shell $(GO) list -m)/' internal/wal
	@! grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench 'binary\.ReadUvarint' . | grep -v '^\./internal/wire/frame\.go:'
	@! grep -rn --include='*_test.go' --exclude-dir=bench -E 'os\.(Getenv|LookupEnv)\(' .
	@! grep -rn --include='*.go' --exclude-dir=bench -E '(^|[^&*])msg\.(ReplicateBatch|Heartbeat)\{' .
	@! grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench -E 'Transport +interface' . | grep -v '^\./internal/netemu/'
	@! grep -rn --include='*.go' --exclude='*_test.go' -E '&msg\.(ReplicateBatch|Heartbeat)\{' internal/repl
	@! grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=bench 'maxReRequestInterval' . | grep -v '^\./internal/repl/repl\.go:'

build:
	$(GO) build ./...

# The size the subtraction arc (ROADMAP arc 7) is measured in: non-test Go
# lines of the root module, bench/ (a module of its own) excluded. The count
# is a gate, not a printout: LOC_CEILING is the last recorded result rounded
# up to the next 10, so a PR that grows the root module has to raise it in
# its own diff, where review sees it (and one that shrinks it lowers it).
LOC_CEILING = 17360
loc:
	@files=$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*'); \
	n=$$(cat $$files | wc -l); \
	echo $$n; \
	echo "largest non-test files (for the next re-anchor, not a gate):"; \
	wc -l $$files | sort -rn | sed -n '2,6p'; \
	if [ $$n -gt $(LOC_CEILING) ]; then \
		echo "make loc: $$n non-test Go lines exceed LOC_CEILING = $(LOC_CEILING) (Makefile)" >&2; exit 1; \
	fi

# -shuffle=on randomizes test (and subtest-source) order every run, keeping
# the suites free of inter-test ordering dependencies.
test:
	$(GO) test -shuffle=on ./...

# bench/ is a module of its own (the benchmark the driver runs), so ./...
# above does not reach it; it compiles against this module's exported API.
bench-module:
	$(GO) -C bench vet ./... && $(GO) -C bench test ./...

# The structural performance guards: allocation counts (testing.AllocsPerRun,
# or runtime.MemStats deltas where a fraction of one matters)
# on the GET/PUT hot path, the RO-TX fan-out (the coordinator's result alone,
# and the session's map on top), a blocked request's park + wake,
# a parked slice from arrival to reply (and no goroutine while it waits),
# the netemu link queue, a replication flush plus an idle heartbeat (pooled,
# released by the links), the durable insert (single and batched: a fraction of
# an allocation per version over the in-memory insert, counted as a float), the
# replication batch decode, the front-door request decode, and a pooled round
# trip from both ends (client side against an echo server, server side against
# the same operation in process), the loader's slab-carved versions (under one
# allocation a key) and a loaded key's share of its shard's slot array, plus
# the replicated-apply heap retention bound, the release of a pruned version
# by a key's tail, of the loader's slabs and value chunks, of the client
# pool's value chunks and of a version the WAL staged, once its commit group
# is written. Counts do not depend on host speed, so unlike wall-clock ratios
# they are asserted on every run (-count=1: never from the test cache).
allocs:
	$(GO) test -count=1 -run 'Allocs|Retention' ./internal/...

# The race guards, one row each: the arguments of one `go test -race -count=1`
# run — a -run pattern (none: every test) and the packages it covers — under
# the reason the row exists. CI calls `make race` once
# (.github/workflows/ci.yml), so a row added here runs there too.
define RACE_ROWS
# Fine-grained server locking: the packages that own or exercise the
# lock-free hot path, and the recycled RO-TX fan-in state and waiters driven
# end to end by the sessions' RO-TX tests.
./internal/core/... ./internal/storage/... ./internal/wal/... ./internal/tcpnet/... ./internal/netemu/...
-run 'ROTx' ./internal/client/ ./internal/cluster/
# The loader: concurrent Seed calls carving versions and value chunks from the
# cluster's one slab under its mutex.
-run 'Seed' ./internal/cluster/
# Durability: mid-workload server restarts, cold restarts.
-run 'Recovery|Durable' ./internal/cluster/... .
# The replication plane: sequenced streams, gap detection and WAL-shipped
# catch-up (crashed buffer tails, dropped links, a crash in the middle of a
# round, which must not restore the entry over the round's hole), the
# catch-up counters across restarts, and the pooled-batch guard: lossless
# links over netemu and TCP must never request a round, which a receiver
# reading a recycled batch would. The quiet re-ask's pins: it backs off, so a
# slow serve completes (TestCatchUpSlowServeCompletesAfterBackoff), and it
# stays, so a request lost at a sender that restarts and a Done lost while
# the sender idles are asked again (TestCatchUpReaskAfterSenderRestart,
# TestCatchUpLostDoneIdleSender).
-run 'CatchUp' ./internal/repl/... ./internal/cluster/...
# Dynamic membership: DC joins bootstrapped by catch-up under a live
# causally-checked workload, graceful leaves (one overtaking a catch-up round,
# whose hole the survivors fill), the stabilization gate.
-run 'Membership|Join|Leave' ./internal/repl/... ./internal/cluster/... .
# Elastic resharding: slot-table epochs, live splits and slot moves under a
# checked workload (drain-then-flip, WAL bootstrap of the new owner, client
# retry through the epoch fence).
-run 'Split|MoveSlots|Slot|Reshard' ./internal/keyspace/... ./internal/cluster/... ./internal/kvserver/...
# The front door: the one dispatcher behind both encodings, the pipelined
# binary path (per-session FIFO workers, out-of-order completion, single
# coalescing writer), the client pool and its carved values, the blocked-GET
# no-stall and churn scenarios, and the leased request frames.
-run 'FrontDoor|Text' ./internal/kvserver/ ./internal/client/ ./internal/wire/
# The hybrid-clock plane: HLC packing/merge, the negative-skew clamp, the
# lean watermark stabilization rule, the skew-insensitive PUT clock-wait and
# the visibility probe (the clock's CAS loop runs on every hot-path message).
-run 'HLC|ClockSkew|Skew|Watermark|Visibility|NegativeSkew' ./internal/clock/... ./internal/vclock/... ./internal/core/... ./internal/cluster/... ./internal/harness/...
# The package's Examples: the blocked photo GET's goroutine and the RO-TX
# reader racing its writer, on live sessions whose output is asserted.
-run 'Example' .
# The chaos plane, last: a seeded fault-injection soak (crash/restarts, DC
# kills + forced removal, join/leave churn, link flaps, latency reprofiles)
# with live causal checking, set by the make variables below.
-v -run 'TestChaosSoak' ./internal/chaos/ -chaos.duration=$(CHAOS_SECONDS)s -chaos.seed=$(CHAOS_SEED) -chaos.trace=$(abspath $(CHAOS_TRACE_FILE))
endef
export RACE_ROWS

# The soak's test flags: its length in seconds, the seed (a failure report
# names both), and the file the failure report is written to, kept at the
# path given here rather than under the test's package directory. Replay a
# failure with `make race CHAOS_SEED=<seed> CHAOS_SECONDS=<seconds>`.
CHAOS_SECONDS ?= 30
CHAOS_SEED ?= 1
CHAOS_TRACE_FILE ?=

race:
	@echo "$$RACE_ROWS" | while read -r row; do \
		case "$$row" in ''|'#'*) continue;; esac; \
		echo "$(GO) test -race -count=1 $$row"; \
		eval "$(GO) test -race -count=1 $$row" || exit 1; \
	done

# The fuzz smoke, one row each: a target and its package, 15 s apiece (go test
# takes one -fuzz target per run). CI calls `make fuzz` once, so a target
# added here runs there too.
define FUZZ_ROWS
# Replication-plane decoders: catch-up chunks, membership views and the retired
# view-only frames, slot tables, HLC delta batches, RO-TX slices into pooled messages.
FuzzCatchUpDecode ./internal/wire/
FuzzMembershipDecode ./internal/wire/
FuzzSlotMapDecode ./internal/wire/
FuzzHLCDecode ./internal/wire/
FuzzSliceDecode ./internal/wire/
# The front door's request and response frames.
FuzzFrontDoorDecode ./internal/wire/
# WAL records and segment tails as recovery reads them.
FuzzWALDecode ./internal/wal/
# The WAL stage: untagged byte records and committer-encoded Records,
# synchronous and async, interleaved with checkpoints of Records, replay in
# stage order after a reopen, and a window read through the tags the Records,
# the snapshot and replay gave the index matches a full scan.
FuzzWALStage ./internal/wal/
# The in-memory engine's probe table of chain heads against a map-of-chains
# model: inserts, garbage collection and DropAbove's backward-shift removal.
FuzzMemOps ./internal/storage/
endef
export FUZZ_ROWS

fuzz:
	@echo "$$FUZZ_ROWS" | while read -r target pkg; do \
		case "$$target" in ''|'#'*) continue;; esac; \
		echo "$(GO) test -run '^$$' -fuzz $$target -fuzztime 15s $$pkg"; \
		$(GO) test -run '^$$' -fuzz $$target -fuzztime 15s $$pkg || exit 1; \
	done

check: vet build loc test bench-module allocs race
