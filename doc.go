// Package occ is a geo-replicated causally consistent key-value store
// implementing Optimistic Causal Consistency (OCC) as described in
// "Optimistic Causal Consistency for Geo-Replicated Key-Value Stores"
// (Spirovska, Didona, Zwaenepoel — ICDCS 2017).
//
// The library embeds a full multi-data-center deployment in one process:
// partition servers, per-link latency-injected networking, loosely
// synchronized physical clocks, update replication, heartbeats, Cure-style
// stabilization, transaction-aware garbage collection and client sessions.
//
// The data path is built for throughput. Partition servers keep no global
// lock: version vectors and stable snapshots are atomic vectors read
// lock-free by the GET/RO-TX hot path, while independent locks cover the
// local write path, stabilization, garbage collection and transaction
// coordination — an optimistic read is a wait-free vector check plus an
// O(1) chain-head lookup, exactly the cheap path the paper argues for.
// Outgoing replication is batched per destination data center and flushed
// on the heartbeat tick Δ (or a size threshold), with the receive side
// applying each batch in a single pass over the storage shards. Deployments
// that cross a real network (internal/tcpnet) frame messages with a
// hand-rolled length-prefixed binary codec whose encode path performs zero
// allocations — the only replication codec. Three engines are provided:
//
//   - POCC — the paper's system: reads return the freshest received version;
//     requests with unresolved dependencies block until the dependency
//     arrives (client-assisted lazy dependency resolution).
//   - CureStar — the pessimistic baseline: reads return the freshest stable
//     version, computed from a periodically stabilized snapshot (GSS).
//   - HAPOCC — highly available POCC: optimistic operation plus infrequent
//     stabilization and a block timeout; sessions fall back to the
//     pessimistic protocol during network partitions and are promoted back
//     once the partition heals.
//
// # Storage engines and durability
//
// Each partition server stores its version chains behind a pluggable
// storage engine (internal/storage.Engine). The default is the sharded
// in-memory engine — fastest, but a killed server loses its partition.
// Setting Config.DataDir selects the durable engine: the in-memory store
// fronted by a segmented write-ahead log (internal/wal) that journals every
// version in the binary wire encoding. Snapshot checkpoints ride the
// garbage-collection exchange (Config.GCInterval): after a GC pass prunes
// the chains, the engine serializes the surviving versions and truncates the
// log's segments, bounding recovery time and disk use.
//
// # The commit pipeline
//
// All durable commits flow through a pipelined group-commit queue: appends
// from the server's concurrent partitions stage onto a shared queue, and a
// single committer goroutine writes and fsyncs whatever has accumulated as
// one group. An insert stages the version itself — one lock and one slice
// append — and the committer encodes, frames and checksums its record into a
// reused buffer, off the inserting goroutine. While one group is in the
// kernel the next is already forming, so under load the fsync cost
// amortizes over hundreds of commits without any configured delay
// (Config.GroupCommitWindow can add a linger to deepen groups further).
// Where the acknowledgement sits relative to that fsync is the durability
// ladder, chosen per deployment:
//
//   - sync (default): every PUT returns only after its commit group is on
//     disk — a machine crash loses nothing acknowledged.
//   - grouped (Config.AckMode = AckGrouped): a local PUT returns after the
//     in-memory insert and WAL staging; the fsync it rides happens in the
//     background. A process exit still loses nothing (Close drains the
//     pipeline); a machine crash can lose only the short acknowledged-but-
//     unsynced suffix of local PUTs.
//   - nosync (Config.NoSync): no fsync at all; a machine crash may lose the
//     latest commits wholesale.
//
// Grouped acks never weaken the replication plane's claims: replicated
// batches are always applied synchronously (a receiver's version-vector
// entry — "I hold everything through t" — and its eviction attestations
// must be backed by fsynced history), and the catch-up feed barriers on the
// pipeline before streaming, so a sender never reports a history complete
// while part of it is still in flight to disk. Recovery after a crash mid-
// group replays the log's longest valid prefix and rebuilds the version-
// vector floor from exactly the versions replayed — a torn group is a
// shorter history, never an inconsistent one.
//
// # Indexed catch-up
//
// Each WAL segment carries a per-origin [min,max] update-timestamp range,
// maintained as the committer writes records, persisted as a trailer when
// the segment seals, and rebuilt on recovery. The log parses no payload: a
// record's tag comes from storage, which encodes and decodes versions. There
// is one walk over durable history — storage.Durable.ForEachDurable, which
// the replication plane declares as repl.Source — and it always seeks
// through this index: snapshot and segments whose ranges cannot intersect
// the requested per-origin window are skipped without being read, so
// re-shipping a brief outage's worth of versions costs O(gap), not O(store),
// and a nil window is the whole history. The index is advisory — readers keep their
// per-version filters — and Stats reports seek hits (walks that skipped a
// part), full scans (walks that skipped none) and parts skipped, alongside
// the commit-pipeline counters (fsyncs, group sizes, ack-to-durable lag).
//
// Recovery reopens the data directory, replays the snapshot plus the log
// tail — tolerating a torn final record from a mid-commit crash — and
// rebuilds both the version chains and the server's version-vector floor,
// so a recovered replica never serves reads that miss its own replayed
// state. Store.RestartServer kills and recovers a single partition server
// in place (sessions keep working; operations racing the restart fail with
// a retriable error), and re-Opening a Store over the same DataDir
// cold-starts the whole deployment from disk. The causal guarantees —
// session guarantees and convergence — hold across both, which the cluster
// recovery tests verify by killing servers mid-workload.
//
// The recovered floor covers more than the replayed versions: a server's
// version vector also advances through heartbeats and catch-up claims —
// entries no WAL record backs — and those values flow into the DC's
// garbage-collection exchange. Before sharing a GC contribution the server
// therefore durably attests it (storage.Durable.AttestVV): a small WAL record
// carrying the vector, folded into the floor on replay and re-emitted by
// checkpoints so truncation cannot lose it. The invariant — every shared
// contribution is recoverable — means a crash-restarted partition can never
// report a vector below a floor its data center has already pruned to.
// Only the local entry starts from the replayed versions; a remote entry
// starts from the attestation alone (storage.Durable.AttestedVV), because
// a link catching up installs versions above a hole and their maximum
// would claim the hole complete. Attestation records are neutral to the
// segment range index (their tag is wal.Neutral), so they never force a
// catch-up seek to read a cold segment.
//
// # Hybrid clocks and stabilization
//
// Timestamps are hybrid logical/physical clocks packed into the same uint64
// the protocol has always shipped: the low 10 bits are a logical counter,
// the rest is the wall clock truncated to 1024 ns ticks, so a packed value
// still reads as nanoseconds and every duration computed from one stays
// meaningful. A node's clock advances as max(wall, last+1) locally and
// absorbs every remote timestamp it handles (replicated batches, heartbeats,
// catch-up claims, PUT dependency vectors and RO-TX snapshot vectors), which
// changes three costs that scale with clock skew under raw physical clocks:
//
//   - The PUT clock-wait (Algorithm 2, line 7) waits on the physical
//     component only and satisfies the ordering with a logical bump, so a
//     writer whose clock trails its dependencies' source pays nothing
//     instead of sleeping out the skew.
//   - An RO-TX slice never waits for its own DC. Its snapshot TV is ahead
//     of a sibling on the local entry m almost always (only the sibling's
//     own PUTs and Δ ticks advance it), yet which local versions exist at
//     TV[m] is the sibling's to say. On arrival it absorbs TV[m] into its
//     clock and, under the replication manager's outbound lock, reads
//     t = Now() and raises VV[m] to t iff t ≥ TV[m] (core's serveSlice).
//     Safe, because a PUT assigns ut = Now(), inserts and raises VV[m]
//     inside that same lock and Now() is strictly increasing: under the
//     lock every local version with ut ≤ t is installed and every later one
//     gets ut > t — exactly what VV[m] = t claims, and what a heartbeat
//     tick already does. A raw clock absorbs nothing: a sibling skewed
//     behind the coordinator reads t < TV[m], raises nothing and parks
//     until its tick (Metrics.TxParkLocal; 0 under hybrid clocks) — nothing
//     sleeps on a delivering goroutine. The trust model is the PUT's, whose
//     dependency vector moves the clock the same way. What remains is the
//     wait for remote updates (TxParkRemote), the price of TV = VV. And as
//     slices raise VV[m] without sending, the heartbeat rule reads what the
//     links last carried (repl's lastTS), not VV[m]: a partition serving
//     RO-TX and no PUT would otherwise go silent and freeze its DC's entry
//     elsewhere, under remote reads and reshard drains that wait on it.
//   - The stable snapshot stops trailing the slowest clock: a DC running
//     50 ms behind pins every GSS entry under raw clocks (the poccbench
//     visibility experiment measures ~66 ms GSS lag and a 4x stable-
//     visibility p99 blowup under ±50 ms skew), while hybrid clocks ride
//     message traffic to the fastest clock and hold the lag near the
//     stabilization cadence under the same skew.
//
// cluster.Config.RawPhysicalClocks reverts to the old raw clock as the
// ablation baseline (the poccbench ablation-skew and visibility experiments
// set it). Two wire-level reductions ride the same timestamps: replicated
// batches encode each version's update time and dependency entries as
// zigzag varint deltas against the batch's heartbeat timestamp (hybrid
// timestamps of one flush window sit close together, so deltas are 1-3
// bytes where absolute wall-clock values cost 9 — measured ~21% fewer bytes
// per version end to end), and cluster.Config.LeanStabilization (an arm of
// the poccbench visibility experiment) replaces most GSS exchange ticks'
// full version vector with one scalar watermark — the minimum nonzero member
// entry of the sender's VV — refreshed by a full vector every few ticks
// (Okapi-style; core.Server.applyVVExchange carries the safety argument). BenchmarkRemoteVisibility and the poccbench
// visibility experiment track the three axes — bytes per version, remote
// visibility p50/p99, GSS lag — with and without emulated skew, and make
// race guards the clock plane under -race.
//
// # Replication plane and catch-up
//
// Geo-replication is an explicit subsystem, internal/repl, and each of its
// arguments is written once, at the head of the file that implements it.
// outbound.go is the write path and its one cadence: a buffered update ships
// on the next heartbeat tick Δ, or inline once 128 have gathered — nothing
// else flushes. inbound.go is the receiver's rule: batches and heartbeats are
// sequenced per sender incarnation, a link's version-vector entry advances
// only while the sequence is gap-free, and a hole, a restarted sender or
// unseen history freezes it and opens a catch-up round — the link's state
// machine is a table there, walked row by row by TestLinkTransitions.
// serve.go answers a round out of the write-ahead log in acknowledged,
// counted chunks, all or nothing (without a log: Unsupported, and the
// receiver resumes on its word), which makes crash recovery a per-replica
// resync. A retried request (a quiet round, a gap-fill round, a join, an
// eviction) waits through one backoff, doubling up to 2 s. Stats exposes
// per-DC and per-link lag, link states and counters.
//
// # Dynamic membership
//
// With Config.MaxDataCenters headroom (vector capacity is reserved up front
// — the lock-free hot path cannot repoint its atomic vectors) and durable
// storage, AddDataCenter grows a running deployment, WaitForJoin blocks
// until the joiner has bootstrapped every link through catch-up and
// announced itself Active, and RemoveDataCenter retires a DC behind a final
// flush; a departed DC's id is never reused. internal/repl/membership.go
// argues the view lattice, the join and the leave. The kvserver JOIN/LEAVE
// admin commands (which poccshell forwards like any other line) and pocckv
// -max-dcs/-join expose the same operations.
//
// # Forced removal of a crashed data center
//
// A whole DC that crashes announces nothing, and the survivors' stable
// snapshot would freeze on its entry forever. ForceRemoveDataCenter evicts
// it: the survivors attest how much of its history each holds, agree on the
// maximum as its final, discard what lies above and re-ship each other what
// lies below (internal/repl/evict.go has the round and its consistency
// argument). Sessions that read a now-discarded suffix version are
// re-initialized rather than served an impossible dependency. Exposed as
// cluster.ForceRemoveDC, occ.Store.ForceRemoveDataCenter and the kvserver
// EVICT command; poccshell forwards EVICT and has kill to crash the DC first.
//
// # Catch-up- and membership-aware garbage collection
//
// A replica that is frozen, catching up or joining must not have the history
// it still needs pruned from under its resync: each server clamps its GC
// contribution to what the laggards it serves hold (repl.Manager.ClampGC,
// argued in internal/repl/serve.go). cluster.Config.GCMaxHoldback bounds
// the deferral (the chaos soak sets it to 2 s); past it the laggard's next
// request is answered with a full re-bootstrap, never a silently incomplete
// range. Stats surfaces the oldest holdback age and the full-resync count.
//
// # Partitioning and resharding
//
// Keys map to partitions through one layout, the slot table: every key
// hashes (FNV-1a, allocation-free) to one of 256 slots, and an epoch-stamped
// slot map (internal/keyspace.SlotMap) assigns each slot an owning
// partition. A deployment of N partitions starts on the epoch-0 table (slot
// s belongs to partition s mod N, keyspace.DefaultMap), installed on the
// router and on every server before the first one starts, and a server
// serves a key iff its table says so, from epoch 0 on. The map is a lattice
// — per-slot assignments carry the epoch that moved them and merge
// higher-stamp-wins — so concurrently gossiped tables converge on every
// server, and replicated batches and catch-up chunks are stamped with the
// sender's slot epoch.
//
// Two things are given up for having one layout and not a hash%N one beside
// it. A data directory written by an earlier build at a partition count that
// does not divide 256 is re-homed on reopen (where N divides 256 the two
// placements are the same function): the WAL carries no layout stamp, and no
// such deployment exists. And more than 256 partitions per DC are rejected
// at construction: that only ever worked without a table, nothing asked for
// it, and such a deployment could not reshard.
//
// With Config.MaxPartitions headroom the partition axis is elastic at
// runtime, the partition-analogue of dynamic DC membership.
// Store.SplitPartition starts the next partition index in every data center
// (gated behind the stabilization gate, owning its slots-to-be under the
// next epoch) and moves half the donor's slots onto it; Store.MoveSlots
// reassigns an explicit slot set between existing partitions. Both drive
// the same drain-then-flip migration: install the next-epoch table
// everywhere — the install serializes on each server's outbound write lock,
// so once it returns the old owners reject operations on the moved slots
// (ErrWrongSlotEpoch) and no in-flight write can still commit under the old
// table: the moved-slot version universe provably freezes before the drain
// marks are taken — wait for every data center's donors to deliver their streams
// everywhere (the drain), then copy the moved history from each DC's local
// donors into its new owner, release the gate, and flip routing. The copy
// reads the donors' version chains (storage.Engine.ForEachVersion), the
// state they serve, never their logs: until the next checkpoint a log still
// holds a forcibly removed DC's discarded suffix. The
// next-epoch table is staged in cluster state for the whole fence-to-flip
// window, so a server crash-restarted mid-reshard boots already fenced. A
// freshly split owner additionally adopts the donors' version-vector claim
// (it serves nothing but the copied slots, so the claim is complete); a
// pre-existing MoveSlots target keeps its own vector — the donors' would
// overclaim versions its other slots have not yet received — and dependency
// waits on the inherited history resolve as heartbeats advance it. Client
// sessions ride through the fence by
// re-resolving their route and retrying, so no acknowledged write is lost
// and no causal dependency is ever served out of order; a drain defeated by
// a concurrent failure aborts by rolling the table forward onto the old
// owners (the lattice cannot go back). The kvserver SPLIT/MOVESLOTS/SLOTS
// commands (typed into nc, pocccli or poccshell, which forwards them) and
// occ.Store.SlotTable expose the same operations; make race guards the
// path under -race.
//
// # The front door
//
// Deployments served over TCP (internal/kvserver) speak one protocol in two
// encodings on the same listener, negotiated by the first byte of each
// connection: text lines (telnet-friendly, one blocking round trip per
// command) and, when the connection opens with wire.FrontDoorMagic, binary
// frames — the production serving path.
//
// There is one serving path. Both encodings live in internal/wire and meet
// in the same two values, so every socket runs the same three steps and the
// middle one exists once:
//
//	             parse                        execute            render
//	text line    wire.ParseTextRequest        kvserver.execute   wire.AppendTextResponse
//	frame        wire.DecodeFrontDoorRequest  (the same call)    wire.AppendFrontDoorResponse
//	typed line   wire.ParseTextRequest        (sent as a frame)  wire.AppendTextResponse
//
// execute is the only caller of the session's PUT, GET and RO-TX and of the
// admin commands (one function returning text or an error), so a blocking
// hook, a counter or a fix lands once, whichever way a request arrived — and
// that is true of every tool. The third row is both line tools, pocccli
// against a pocckv port and poccshell against the loopback listener it puts
// in front of its own in-process store: one function
// (client.RemoteSession.TextRoundTrip) parses the typed line with the same
// parser, sends the frame, and renders the response frame with the same
// renderer. The shell adds only the verbs that need the store handle and
// have no front-door spelling (dc, partition, heal, kill).
//
// Binary connections carry a stream of length-prefixed request frames,
// each tagged with a request id and a client-chosen wire-session id, over
// the same zero-allocation codec and frame layer the replication plane uses.
// A request or reply too large for one frame (wire.MaxFrontDoorFrame) fails
// alone: the pool never sends the request, the server answers the reply
// with FDErr, and the connection carries on. Three rules
// shape the server: requests of one wire session execute in FIFO order (a
// session is a single thread of execution in the causality order); requests
// of different sessions complete out of order, so an optimistic GET parked
// in a dependency wait never head-of-line-blocks the other sessions
// multiplexed on the connection; and one writer goroutine owns the socket's
// write side, coalescing whatever responses are ready into a single write
// per batch (a fourth rule, who owns a request's frame buffer, is part of
// the ownership ladder below). The client half (internal/client.Pool) holds a few pooled
// connections per data center, multiplexes RemoteSessions onto them
// round-robin, matches responses to in-flight requests by id, and
// reconstructs canonical error values from wire codes (errors.Is works
// across the wire); a reshard fence is retried once, by the server-side
// session, never again by the pool. Sizing: a handful of connections
// saturates a listener; throughput comes from pipelining depth, not socket
// count.
// Pipelined throughput on one connection measures >5x one synchronous round
// trip at a time on the same connection (BenchmarkFrontDoorPipelined;
// TestFrontDoorPipelinedSpeedup checks the ratio when run by name — a
// wall-clock ratio is not asserted inside go test ./... — and make race
// guards the path under -race). pocccli rides the binary path; nc or
// telnet is the text client.
//
// # Ownership at each hand-off
//
// A replicated PUT crosses eight layers, and at each boundary exactly one
// side may keep a key, value or dependency slice and at most one side copies.
// The rules, in path order — allocation guards and race-enabled ownership
// tests pin them (make allocs; TestFrontDoorPutOwnsItsBytes,
// TestFrontDoorLeaseSurvivesBlockedGet, TestFrontDoorLeaseCap,
// TestDecodedBatchOwnsItsBytes, TestFrontDoorCallReuse*,
// TestPutCopiesCallerDeps, TestROTxInterleavedPutKeepsDeps):
//
//   - client.Pool → front-door frame. A request is encoded into the writer's
//     scratch before its call completes; the pool keeps nothing of the
//     caller's key or value afterwards. A synchronous RemoteSession call
//     reuses the session's one Call (completion is a CAS on the request id,
//     so a teardown racing a response cannot reach the next use); *Async
//     calls allocate their own. A response's values (an RO-TX's keys too)
//     are carved out of the reader's buffer into the connection's
//     item.Chunk (4 KiB; a value over 512 B is an allocation of its own), so
//     a GET round trip allocates nothing on either end. They are the
//     caller's, at the loader's retention price: a kept value keeps its
//     chunk reachable. The reader zeroes a run's slots once delivered, so an
//     idle connection pins no response, only its current chunk.
//   - front-door frame → session worker → core. The connection reader takes
//     a frame buffer on lease from a pool, reads one frame into it and
//     decodes it in place: wire.DecodeFrontDoorRequest aliases the frame, so
//     the request lives as long as whoever holds the lease lets it. The
//     borrowing rule: a request borrows its lease iff nothing can read its
//     strings after execute returns. A GET qualifies — its key is looked up,
//     never stored (client.Session.getReply, core.Server.Get, the wait lists
//     and trackRead keep nothing of it) — so the lease rides the session's
//     queue with the request, and a GET crosses the server without a copy.
//     Everything else is detached before it is queued
//     (wire.FrontDoorRequest.Detach): a PUT's key and value become the stored
//     version's and leave the frame in one allocation, which kvserver hands
//     to Session.PutOwned — no second copy; an RO-TX's keys travel in slice
//     requests that copy string headers, not bytes, and can outlive a
//     first-error return, so a parked slice would pin the frame; an admin
//     line is rare; PING and STATS carry no bytes and detach for free. Who
//     returns the lease: the session worker once execute has returned (or, the
//     connection down, as it drains its queue unexecuted); the reader itself
//     for a detached request — it reads the next frame into the same buffer —
//     and on a read or decode error or a refused dispatch, on its way out. A
//     buffer above 64 KiB is dropped rather than returned, so one large frame
//     pins neither the pool nor its connection. In-process callers use
//     Session.Put, which makes the one copy at that edge; the session's
//     dependency vector travels as its reusable scratch, as a GET's does.
//   - core.Put → engine. value: handed over; dv: borrowed, copied into the
//     version. The version is one object wherever it is born (item.New: the
//     struct and its dependency vector in one allocation), immutable from
//     then on and shared by pointer with the replication buffer (and, on the
//     emulated transport, with every replica).
//   - engine → wal. storage.Durable stages the version itself, as a
//     wal.Record: the log holds the immutable version until its commit group
//     is written, and the committer encodes it then and clears the slot, so
//     the log's hold on versions is bounded by the staging cap plus one
//     in-flight group (TestDurableStagedRetention). A VV attestation is
//     staged the same way, and its sync append returns only once the record
//     is written, so the caller's vector is never retained.
//   - repl flush → tcpnet. A flush hands its buffer to one pooled
//     *ReplicateBatch for all target DCs, immutable from then on with one
//     reference per target link, and starts the next window in the list a
//     recycled batch left (an idle heartbeat is pooled the same way).
//     tcpnet's out-queue holds a message until its flush succeeds, then
//     releases the link's reference and clears the slot; netemu releases
//     once the handler returns. The last release recycles the message, so
//     a flush and a heartbeat allocate nothing (TestReplicationFlushAllocs);
//     one a closed link never delivers is left to the collector. A drained
//     link references nothing it sent, and its two queue buffers swap
//     rather than reallocate.
//   - wire batch → repl → engine. A decoded version list (ReplicateBatch,
//     CatchUpReply, SlotHandoff) never aliases the decoder's reused frame
//     buffer: its frame is read into a buffer of its own, exactly sized,
//     keys and values alias that buffer, and the versions — dependency
//     vectors included — are carved from one slab of records (item.Slab)
//     sized from the list — so a batch allocates in proportion to its frame
//     (2 allocations whatever its length, a list of mixed vector lengths one
//     more per size class) and a hostile count cannot size anything the
//     remaining bytes could not encode. The price is retention at batch
//     granularity: a live version keeps its batch's frame and slab
//     reachable, at most one frame of dead neighbors. The *ReplicateBatch
//     and *Heartbeat themselves, and the batch's pointer list, are the
//     decoder's, lent until the handler returns (netemu.Handler): no
//     consumer keeps the list — repl applies every batch inline, on a
//     catching-up link too, before the handler returns.
//   - what storage may keep of a decoded key. Only what it keeps of the
//     version: a shard's table stores no key of its own — a key is its chain
//     head's Key — so it never pins the frame of a version that has been
//     collected. InsertBatch retains neither the batch slice nor anything
//     outside the versions themselves.
//   - the loader → every DC's engine. cluster.Seed carves its versions as
//     the decoder does, 64 to an item.Slab array, and copies values into
//     shared 4 KiB chunks (three-index slices, so an append never spills
//     into a neighbour), then inserts that one version into every DC's
//     chain — versions are immutable, so the DCs share it as a flushed
//     batch's receivers do; a durable engine stages that version on its WAL
//     and its committer encodes the record. The price is the decoder's: a live seeded version keeps
//     at most 63 dead neighbours and one value chunk reachable, never more
//     than the loaded state itself; a spent array or chunk is dropped. A
//     storage.Mem shard is one array of two-word slots (a key's head and
//     its tail), 8 at first and quadrupled on growth, so a key with one
//     version costs an engine one slot and no chain; a key's first update
//     makes its tail, whose first two versions live inline, and a third
//     spills them out and clears the pair behind it, so a tail never keeps a
//     pruned version alive (TestSeedSharesOneVersion, TestSeedAllocs,
//     TestSeedRetention, TestMemLoadAllocs, TestChainCellRetention).
//
// A read-only transaction crosses fewer layers, and allocates only what its
// caller keeps (TestROTxCoordinatorAllocs: the result, 1 object for 4
// partitions × 1 key; TestSessionROTxAllocs: 3 with the session's map;
// TestParkedSliceAllocs: 0 in a serving server, parked or not, and no
// goroutine; TestWaitOnBlockedAllocs, TestNetemuSendAllocs, and under -race
// TestROTxPendingReuseIgnoresLateReply, TestWaiterRecycleNoStaleWake,
// TestParkedSliceOutlivesFailedTx):
//
//   - core.ROTx → slice requests. Each key is appended, in request order, to
//     its partition's pooled request; TV is loaded into the pooled fan-in
//     state and copied into each request. A request owns copies of its keys'
//     headers and of TV: it may be parked at a sibling after the transaction
//     has failed and the fan-in state serves the next one.
//   - one serving path. core's serveSlice never blocks its caller — a
//     link's delivery goroutine, or the coordinator for its own slice. A
//     snapshot the version vector covers (the local entry satisfied first,
//     see "Hybrid clocks") is read and answered there: it cannot park — the
//     vector only grows — and its reads cost less than a hand-off. One that
//     must wait parks as a request, not a goroutine: a pooled waiter carries
//     it on the VV wait list, and whoever advances the vector far enough — a
//     link delivering a batch or heartbeat, a PUT's caller, another slice —
//     takes it off, releases the list lock, then reads and answers (so that
//     continuation stays out of repl's inbound path: it reads storage,
//     records a metric and sends). A park ends badly through the same door:
//     the waiter's block timer (HA-POCC), if it wins the removal, or
//     shutdown, which empties the list and answers ErrStopped.
//   - both slice messages, one rule. A SliceReq and a SliceResp, with their
//     buffers, come from pools in msg and have one owner, who releases them;
//     Send transfers ownership. On netemu the same pointer reaches the
//     receiver: replySlice releases a request once its reads are done (on
//     arrival, after parking, or with an error), applySliceResp a reply once
//     its items are in the result (duplicates and late ones too). On tcpnet
//     the writer releases either once its flush succeeded — a broken
//     connection retransmits the batch it still holds — and the decoder
//     draws the inbound one from the pool, releasing it itself if the frame
//     is bad. Release clears keys and items, which alias callers' strings
//     and stored values. The fan-in completes on the last reply or the first
//     error; replies find it by transaction id under the coordinator's lock,
//     never by pointer, so a late or duplicate reply meets a missing id, not
//     the state's next user.
//   - coordinator → caller. The returned reply slice is the caller's, sized
//     to the read set once. Fan-in state and waiters are recycled inside
//     core and never escape it; each goes back to its pool only with its
//     channel empty — a waiter whose timer could not be stopped, not at all.
//   - netemu. A link's queue is a ring that clears a slot as it delivers
//     (a drained link references nothing it carried —
//     TestLinkDrainedHoldsNoMessages) and keeps its buffer, so a send
//     allocates nothing beyond the boxed message.
//
// # Chaos plane
//
// internal/chaos is the standing fault-injection harness tying the above
// together: from a single seed it derives a deterministic schedule of
// server crash/restarts, DC joins, graceful leaves, kills followed by
// forced removal, live partition splits and slot moves under the checked
// workload, inter-DC link flaps and live latency reprofiles, and
// executes it against a durable HA-POCC deployment while checker sessions
// (internal/causaltest, no auto-fallback — errors reopen fresh sessions,
// mirroring real client failover) assert causal consistency and a watchdog
// asserts stabilization progress whenever no fault legitimately freezes it.
// Every run ends with a heal-and-quiesce epilogue that requires full
// convergence. A failure reports the command that replays it (the
// -chaos.seed and -chaos.duration test flags; make race passes them from
// CHAOS_SEED and CHAOS_SECONDS) and the executed fault trace; replaying the
// seed at the same length reproduces the identical schedule.
//
// # Reproducing the evaluation
//
// The paper's evaluation (§V) is one table, harness.Experiments, printed by
// cmd/poccbench; `poccbench -list` shows every sweep and the figures it
// yields, and -experiment takes either id. Fig. 1a, 1c and 3a are their own
// sweeps (fig1a, fig1c, fig3a); Fig. 1b, 2a and 2b are three views of
// getput-sweep, Fig. 3b-3d of tx-sweep, so `-experiment fig1b,fig2a` measures
// once. Beyond the paper: partition (its stated future work), visibility, and
// ablation-stab, -hb, -skew and -think over the parameters §V discusses.
// -scale ci takes seconds per figure on 3 DCs × 4 partitions, medium a few
// seconds per point on 3 × 8, paper (3 × 32, 25 ms think time, full AWS
// latencies) minutes per figure. POCC against Cure* is the control arm: these
// tables show the paper's shapes on an emulated network, not gated numbers.
// The numbers a change is held to are bench/'s (BENCHMARK.json).
//
// Quick start:
//
//	store, err := occ.Open(occ.Config{DataCenters: 3, Partitions: 4, Engine: occ.POCC})
//	if err != nil { ... }
//	defer store.Close()
//
//	oregon, _ := store.Session(0)
//	_ = oregon.Put("user:42:name", []byte("ada"))
//
//	ireland, _ := store.Session(2)
//	name, _ := ireland.Get("user:42:name") // freshest received version
//
// Sessions provide GET, PUT and causally consistent read-only transactions
// (ROTx). Every operation carries compact dependency vectors (one physical
// timestamp per data center), the metadata POCC uses to detect missing
// dependencies without inter-server synchronization.
package occ
