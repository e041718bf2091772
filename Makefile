GO ?= go

.PHONY: all vet build loc test bench-module allocs race soak-sweep fuzz check

all: check

# A version is born in internal/item (item.New, item.Slab) and nowhere else:
# a Version literal in other non-test Go of the root module fails the step.
# A PUT's key and value are born in item.New too, which copies them into the
# version's record: every caller only borrows them, so there is no owning
# variant of Put to choose, and PutOwned in the root module's Go, tests
# included, fails the step.
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
# A DC departs through one round, graceful or forced (internal/repl/evict.go):
# LeaveNotice, the retired leave protocol, in the root module's Go, tests
# included, fails the step.
# A forced removal holds no survivor's entry at its ack: a verdict below an
# entry raises the final (repl.Manager.raiseFinal). The retired eviction
# freeze — evictCap, capRaiseLocked, evictFreezeGrace — in the root module's
# Go, tests included, fails the step.
# A read-only transaction answers in read-set order: the coordinator's fan-in
# places each slice's items at their keys' indices, and a session returns one
# slice of values, vals[i] for keys[i]. A map-returning RO-TX —
# "ROTx(keys []string) (map[" — in the root module's Go, tests included, fails
# the step.
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
	@! grep -rn --include='*.go' --exclude-dir=bench 'PutOwned' .
	@! grep -rn --include='*.go' --exclude-dir=bench 'LeaveNotice' .
	@! grep -rn --include='*.go' --exclude-dir=bench -E 'evictCap|capRaiseLocked|evictFreezeGrace' .
	@! grep -rn --include='*.go' --exclude-dir=bench -F 'ROTx(keys []string) (map[' .

build:
	$(GO) build ./...

# The size the subtraction arc (ROADMAP arc 7) is measured in: non-test Go
# lines of the root module, bench/ (a module of its own) excluded. The count
# is a gate, not a printout: LOC_CEILING is the last recorded result rounded
# up to the next 10, so a PR that grows the root module has to raise it in
# its own diff, where review sees it (and one that shrinks it lowers it).
LOC_CEILING = 17610
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
# and the session's slice of values on top, in process and over the front
# door), a blocked request's park + wake,
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
# end to end by the sessions' RO-TX tests. internal/item rides here for
# checkptr, which -race turns on: a PUT's record points its Key and Value
# into itself (unsafe.String).
./internal/core/... ./internal/storage/... ./internal/wal/... ./internal/tcpnet/... ./internal/netemu/... ./internal/item/
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
# TestCatchUpLostDoneIdleSender). The GC holdback: ClampGC runs on core's GC
# goroutines and nests serveMu under holdMu, while catch-up requests and a
# retiring link write the table (TestHoldbackConcurrentClamp).
-run 'CatchUp|Holdback|ClampGC' ./internal/repl/... ./internal/cluster/...
# Dynamic membership: DC joins bootstrapped by catch-up under a live
# causally-checked workload, graceful leaves (the departure round: one during
# a catch-up round, one that no survivor had synced, whose history the leaver
# serves until each holds it), the stabilization gate.
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
# The decoder's hostile-count guard, whose byte bound holds under the race
# runtime only through its measured race factor: without this row a bound
# that the runtime alone overruns fails where no CI step looks.
-run 'Hostile' ./internal/wire/
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
$(call soak_row,$(CHAOS_SEED))
endef
export RACE_ROWS

# The soak's test flags: its length in seconds, the seed (a failure report
# names both), and the file the failure report is written to, kept at the
# path given here rather than under the test's package directory. Replay a
# failure with `make race CHAOS_SEED=<seed> CHAOS_SECONDS=<seconds>`.
CHAOS_SECONDS ?= 30
CHAOS_SEED ?= 1
CHAOS_TRACE_FILE ?=

# The soak row's test arguments for the seed $(1): the one definition the
# race row and soak-sweep share.
soak_row = -v -run 'TestChaosSoak' ./internal/chaos/ -chaos.duration=$(CHAOS_SECONDS)s -chaos.seed=$(1) -chaos.trace=$(abspath $(CHAOS_TRACE_FILE))

race:
	@echo "$$RACE_ROWS" | while read -r row; do \
		case "$$row" in ''|'#'*) continue;; esac; \
		echo "$(GO) test -race -count=1 $$row"; \
		eval "$(GO) test -race -count=1 $$row" || exit 1; \
	done

# The soak over many schedules: the chaos row of `make race`, once per seed in
# SEEDS, one run at a time, each summarized on one line (its outcome, wall
# seconds and the soak's own summary: catch-up and ledger counts). A failed
# seed adds its violations and its replay. Too long for `make check` and CI;
# a change that claims a convergence fix reports it before and after.
SEEDS ?= 1 2 3 4 5 6 7 8 9 10 11

soak-sweep:
	@fail=0; for s in $(SEEDS); do \
		t0=$$(date +%s); \
		out=$$($(GO) test -race -count=1 $(call soak_row,$$s) 2>&1); rc=$$?; \
		sum=$$(echo "$$out" | grep -o 'chaos: seed=.*' | tail -n 1); \
		if [ $$rc -eq 0 ]; then res=PASS; else res=FAIL; fail=1; fi; \
		echo "$$res seed=$$s wall_s=$$(( $$(date +%s) - t0 )) $${sum#chaos: seed=$$s }"; \
		[ $$rc -eq 0 ] || { echo "$$out" | sed -n '/violations (/,/fault trace:/p' | head -n 20; \
			echo "  replay: make race CHAOS_SEED=$$s CHAOS_SECONDS=$(CHAOS_SECONDS)"; }; \
	done; exit $$fail

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
# A PUT's version: any key, value and vector width round-trip through
# item.New, survive the caller rewriting its buffers, and share no byte with
# a twin made from the same inputs.
FuzzItemNew ./internal/item/
endef
export FUZZ_ROWS

fuzz:
	@echo "$$FUZZ_ROWS" | while read -r target pkg; do \
		case "$$target" in ''|'#'*) continue;; esac; \
		echo "$(GO) test -run '^$$' -fuzz $$target -fuzztime 15s $$pkg"; \
		$(GO) test -run '^$$' -fuzz $$target -fuzztime 15s $$pkg || exit 1; \
	done

check: vet build loc test bench-module allocs race
