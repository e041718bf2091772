package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/repl"
	"repro/internal/vclock"
)

// rig wires one real server (dc 0, partition 0) into a network with fake
// sibling endpoints at the other DCs and partitions so tests can observe
// replication traffic and inject protocol messages.
type rig struct {
	t      *testing.T
	net    *netemu.Network
	srv    *Server
	mx     *Metrics
	mu     sync.Mutex
	inbox  map[netemu.NodeID][]any // messages received by fake peers
	fakeEP map[netemu.NodeID]*netemu.Endpoint
	seq    map[netemu.NodeID]uint64 // last batch sequence each fake peer sent
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := &rig{
		t:      t,
		inbox:  make(map[netemu.NodeID][]any),
		fakeEP: make(map[netemu.NodeID]*netemu.Endpoint),
		seq:    make(map[netemu.NodeID]uint64),
	}
	r.net = netemu.New(netemu.Config{})
	if cfg.NumDCs == 0 {
		cfg.NumDCs = 3
	}
	if cfg.NumPartitions == 0 {
		cfg.NumPartitions = 2
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.New(0)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	if cfg.DefaultMode == 0 {
		cfg.DefaultMode = Optimistic
	}
	if cfg.SlotMap == nil {
		cfg.SlotMap = allSlotsTo(cfg.NumPartitions, 0)
	}
	cfg.ID = netemu.NodeID{DC: 0, Partition: 0}
	cfg.Endpoint = r.net.Register(cfg.ID, nil)
	// Fake peers: same partition in other DCs, other partitions in DC 0.
	for dc := 1; dc < cfg.NumDCs; dc++ {
		id := netemu.NodeID{DC: dc, Partition: 0}
		r.registerFake(id)
	}
	for p := 1; p < cfg.NumPartitions; p++ {
		id := netemu.NodeID{DC: 0, Partition: p}
		r.registerFake(id)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.srv = srv
	r.mx = cfg.Metrics
	t.Cleanup(func() {
		srv.Close()
		r.net.Close()
	})
	return r
}

// allSlotsTo returns the table a rig server runs on unless a test brings its
// own: over n partitions, with partition p owning every slot, so the tests
// drive one server with arbitrary keys.
func allSlotsTo(n, p int) *keyspace.SlotMap {
	all := make([]int, keyspace.NumSlots)
	for s := range all {
		all[s] = s
	}
	m, _ := keyspace.DefaultMap(n).MoveSlots(all, p)
	return m
}

// registerFake records what a fake peer receives. A replication batch or
// heartbeat is lent for the handler call only (netemu.Handler), so the inbox
// keeps a copy.
func (r *rig) registerFake(id netemu.NodeID) {
	ep := r.net.Register(id, func(_ netemu.NodeID, m any) {
		r.mu.Lock()
		r.inbox[id] = append(r.inbox[id], kept(m))
		r.mu.Unlock()
	})
	r.fakeEP[id] = ep
}

// kept returns what a handler may keep of m past the call: a copy of a
// batch (its list included) or a heartbeat, anything else as it is.
func kept(m any) any {
	switch mm := m.(type) {
	case *msg.ReplicateBatch:
		return &msg.ReplicateBatch{Versions: slices.Clone(mm.Versions), HBTime: mm.HBTime,
			Epoch: mm.Epoch, Seq: mm.Seq, Floor: mm.Floor, SlotEpoch: mm.SlotEpoch}
	case *msg.Heartbeat:
		return &msg.Heartbeat{Time: mm.Time, Epoch: mm.Epoch, Seq: mm.Seq, Floor: mm.Floor}
	}
	return m
}

func (r *rig) received(id netemu.NodeID) []any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]any, len(r.inbox[id]))
	copy(out, r.inbox[id])
	return out
}

// inject sends a message from a fake peer to the server. Replication
// messages are stamped the way a real sender's outbound stream stamps them:
// one incarnation per peer, a batch takes the next sequence number and a
// heartbeat re-attests the current one — so the server sees a gap-free link.
func (r *rig) inject(from netemu.NodeID, m any) {
	r.mu.Lock()
	defer r.mu.Unlock() // stamp and send as one step: link order is sequence order
	switch mm := m.(type) {
	case *msg.ReplicateBatch:
		r.seq[from]++
		mm.Epoch, mm.Seq = 1, r.seq[from]
		m = mm
	case *msg.Heartbeat:
		mm.Epoch, mm.Seq = 1, r.seq[from]
		m = mm
	}
	r.fakeEP[from].Send(netemu.NodeID{DC: 0, Partition: 0}, m)
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(200 * time.Microsecond)
	}
	return false
}

func TestConfigValidation(t *testing.T) {
	net := netemu.New(netemu.Config{})
	defer net.Close()
	base := Config{
		Config: repl.Config{
			ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3,
			Clock: clock.New(0), Endpoint: net.Register(netemu.NodeID{DC: 0, Partition: 0}, nil),
		},
		NumPartitions: 1, DefaultMode: Optimistic, Metrics: &Metrics{},
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero DCs", func(c *Config) { c.NumDCs = 0 }},
		{"id outside layout", func(c *Config) { c.ID.DC = 7 }},
		{"no clock", func(c *Config) { c.Clock = nil }},
		{"no metrics", func(c *Config) { c.Metrics = nil }},
		{"bad mode", func(c *Config) { c.DefaultMode = 0 }},
		{"pessimistic without stabilization", func(c *Config) { c.DefaultMode = Pessimistic }},
		{"more partitions than slots", func(c *Config) { c.NumPartitions = keyspace.NumSlots + 1 }},
		{"more capacity than slots", func(c *Config) { c.MaxPartitions = keyspace.NumSlots + 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := NewServer(cfg); err == nil {
				t.Fatal("want error")
			}
		})
	}
	cfg := base
	cfg.NumPartitions = keyspace.NumSlots
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("%d partitions (one slot each) must be accepted: %v", keyspace.NumSlots, err)
	}
	srv.Close()
}

func TestPutAssignsIncreasingTimestamps(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}})
	var prev vclock.Timestamp
	for i := 0; i < 50; i++ {
		ut, err := r.srv.Put("k0", []byte("v"), vclock.New(3), Optimistic)
		if err != nil {
			t.Fatal(err)
		}
		if ut <= prev {
			t.Fatalf("put %d: timestamp %d not increasing past %d", i, ut, prev)
		}
		prev = ut
	}
	if got := r.srv.VV().Get(0); got != prev {
		t.Fatalf("VV[0] = %d, want %d", got, prev)
	}
}

func TestPutTimestampExceedsDependencies(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}})
	future := r.srv.clk.Now() + vclock.Timestamp(2*time.Millisecond)
	dv := vclock.VC{0, future, 0}
	// The PUT first waits until the server has received its dependency
	// (Algorithm 2 line 6): DC1's heartbeat delivers it.
	r.inject(netemu.NodeID{DC: 1, Partition: 0}, &msg.Heartbeat{Time: future})
	ut, err := r.srv.Put("k0", []byte("v"), dv, Optimistic)
	if err != nil {
		t.Fatal(err)
	}
	if ut <= future {
		t.Fatalf("ut = %d must exceed max dependency %d", ut, future)
	}
}

// TestPutCopiesCallerDeps: dv is borrowed — sessions pass reusable scratch —
// so the stored version must not alias it.
func TestPutCopiesCallerDeps(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}})
	dv := vclock.VC{3, 0, 0}
	if _, err := r.srv.Put("k0", []byte("v"), dv, Optimistic); err != nil {
		t.Fatal(err)
	}
	dv[0], dv[2] = 99, 99
	reply, err := r.srv.Get("k0", vclock.New(3), Optimistic)
	if err != nil {
		t.Fatal(err)
	}
	if want := (vclock.VC{3, 0, 0}); !reply.Deps.Equal(want) {
		t.Fatalf("stored Deps = %v after the caller reused dv, want %v", reply.Deps, want)
	}
}

func TestPutReplicatesToSiblingsInOrder(t *testing.T) {
	// Each PUT waits for the Δ tick to flush its predecessor, so every one
	// leaves as a single-version sequenced batch (the original
	// one-message-per-update protocol, with the link's gap-free sequence
	// numbers); idle heartbeats may interleave.
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Millisecond}})
	batches := func(id netemu.NodeID) []*msg.ReplicateBatch {
		var out []*msg.ReplicateBatch
		for i, m := range r.received(id) {
			switch mm := m.(type) {
			case *msg.ReplicateBatch:
				out = append(out, mm)
			case *msg.Heartbeat:
			default:
				t.Fatalf("message %d is %T, want ReplicateBatch or Heartbeat", i, m)
			}
		}
		return out
	}
	const puts = 20
	for i := 0; i < puts; i++ {
		if _, err := r.srv.Put("k0", []byte{byte(i)}, vclock.New(3), Optimistic); err != nil {
			t.Fatal(err)
		}
		for dc := 1; dc < 3; dc++ {
			id := netemu.NodeID{DC: dc, Partition: 0}
			if !waitUntil(t, time.Second, func() bool { return len(batches(id)) > i }) {
				t.Fatalf("dc%d received %d batches, want %d", dc, len(batches(id)), i+1)
			}
		}
	}
	for dc := 1; dc < 3; dc++ {
		var prev vclock.Timestamp
		var prevSeq uint64
		for i, rep := range batches(netemu.NodeID{DC: dc, Partition: 0}) {
			if len(rep.Versions) != 1 {
				t.Fatalf("message %d carries %d versions, want 1 (unbatched)", i, len(rep.Versions))
			}
			if rep.Versions[0].UpdateTime <= prev {
				t.Fatal("replication not in timestamp order")
			}
			prev = rep.Versions[0].UpdateTime
			if rep.Epoch == 0 || rep.Seq != prevSeq+1 {
				t.Fatalf("message %d carries (epoch %d, seq %d) after seq %d; want a gap-free sequenced stream",
					i, rep.Epoch, rep.Seq, prevSeq)
			}
			prevSeq = rep.Seq
		}
	}
}

func TestGetReturnsFreshestAndMetadata(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}})
	if _, err := r.srv.Put("k0", []byte("old"), vclock.New(3), Optimistic); err != nil {
		t.Fatal(err)
	}
	dv := vclock.VC{0, 7, 0}
	r.inject(netemu.NodeID{DC: 1, Partition: 0}, &msg.Heartbeat{Time: 7})
	ut, err := r.srv.Put("k0", []byte("new"), dv, Optimistic)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := r.srv.Get("k0", vclock.New(3), Optimistic)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Exists || string(reply.Value) != "new" {
		t.Fatalf("reply = %+v", reply)
	}
	if reply.UpdateTime != ut || reply.SrcReplica != 0 {
		t.Fatalf("metadata = %+v, want ut=%d sr=0", reply, ut)
	}
	if !reply.Deps.Equal(dv) {
		t.Fatalf("deps = %v, want %v", reply.Deps, dv)
	}
}

func TestGetMissingKey(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}})
	reply, err := r.srv.Get("absent", vclock.New(3), Optimistic)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Exists {
		t.Fatal("missing key must not exist")
	}
}

func TestReplicateAdvancesVVAndServesFreshVersion(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}})
	v := &item.Version{Key: "k0", Value: []byte("remote"), SrcReplica: 1,
		UpdateTime: 12345, Deps: vclock.VC{0, 0, 0}}
	r.inject(netemu.NodeID{DC: 1, Partition: 0}, &msg.ReplicateBatch{Versions: []*item.Version{v}})
	if !waitUntil(t, time.Second, func() bool { return r.srv.VV().Get(1) == 12345 }) {
		t.Fatalf("VV[1] = %d, want 12345", r.srv.VV().Get(1))
	}
	reply, err := r.srv.Get("k0", vclock.New(3), Optimistic)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Value) != "remote" {
		t.Fatalf("value = %q", reply.Value)
	}
}

func TestHeartbeatAdvancesVV(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}})
	r.inject(netemu.NodeID{DC: 2, Partition: 0}, &msg.Heartbeat{Time: 999})
	if !waitUntil(t, time.Second, func() bool { return r.srv.VV().Get(2) == 999 }) {
		t.Fatalf("VV[2] = %d", r.srv.VV().Get(2))
	}
}

func TestGetBlocksUntilDependencyArrives(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}})
	need := vclock.Timestamp(50000)
	rdv := vclock.VC{0, need, 0}

	type result struct {
		reply msg.ItemReply
		err   error
	}
	done := make(chan result, 1)
	go func() {
		reply, err := r.srv.Get("k0", rdv, Optimistic)
		done <- result{reply, err}
	}()

	select {
	case res := <-done:
		t.Fatalf("GET returned early: %+v", res)
	case <-time.After(30 * time.Millisecond):
	}

	// The missing dependency arrives.
	v := &item.Version{Key: "k0", Value: []byte("dep"), SrcReplica: 1,
		UpdateTime: need, Deps: vclock.VC{0, 0, 0}}
	r.inject(netemu.NodeID{DC: 1, Partition: 0}, &msg.ReplicateBatch{Versions: []*item.Version{v}})

	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if string(res.reply.Value) != "dep" {
			t.Fatalf("reply = %+v", res.reply)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("GET still blocked after dependency arrived")
	}
	if bs := r.mx.GetBlocking.Snapshot(); bs.Blocked != 1 || bs.MeanBlockTime() < 20*time.Millisecond {
		t.Fatalf("blocking stats = %+v", bs)
	}
}

func TestGetUnblocksOnHeartbeat(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}})
	rdv := vclock.VC{0, 7777, 0}
	done := make(chan error, 1)
	go func() {
		_, err := r.srv.Get("k0", rdv, Optimistic)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	r.inject(netemu.NodeID{DC: 1, Partition: 0}, &msg.Heartbeat{Time: 8000})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("heartbeat did not unblock the GET")
	}
}

func TestGetIgnoresLocalEntryOfRDV(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}})
	// A dependency on the local DC is trivially satisfied (Algorithm 2 line
	// 2 skips entry m) even when it exceeds VV[m].
	rdv := vclock.VC{1 << 60, 0, 0}
	done := make(chan error, 1)
	go func() {
		_, err := r.srv.Get("k0", rdv, Optimistic)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("GET must not block on the local entry")
	}
}

// TestPutWaitsForDependencies: a default server runs Algorithm 2 line 6 — a
// PUT waits until the partition's VV covers the client's dependencies.
func TestPutWaitsForDependencies(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}})
	dv := vclock.VC{0, 4242, 0}
	done := make(chan error, 1)
	go func() {
		_, err := r.srv.Put("k0", []byte("v"), dv, Optimistic)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("PUT returned before dependencies arrived: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	r.inject(netemu.NodeID{DC: 1, Partition: 0}, &msg.Heartbeat{Time: 5000})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PUT still blocked")
	}
	if bs := r.mx.PutBlocking.Snapshot(); bs.Blocked != 1 {
		t.Fatalf("put blocking stats = %+v", bs)
	}
}

func TestBlockTimeoutClosesSession(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}, BlockTimeout: 25 * time.Millisecond})
	rdv := vclock.VC{0, 1 << 50, 0}
	start := time.Now()
	_, err := r.srv.Get("k0", rdv, Optimistic)
	if err != ErrSessionClosed {
		t.Fatalf("err = %v, want ErrSessionClosed", err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("returned after %v, before the block timeout", elapsed)
	}
	if !r.srv.Suspected() {
		t.Fatal("server must suspect a partition after a block timeout")
	}
}

func TestSuspectedClearsAfterWindow(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}, BlockTimeout: 5 * time.Millisecond})
	if r.srv.Suspected() {
		t.Fatal("fresh server must not be suspected")
	}
	_, err := r.srv.Get("k0", vclock.VC{0, 1 << 50, 0}, Optimistic)
	if err != ErrSessionClosed {
		t.Fatal(err)
	}
	if !waitUntil(t, time.Second, func() bool { return !r.srv.Suspected() }) {
		t.Fatal("suspicion must clear after the window")
	}
}

func TestPessimisticGetHidesUnstableVersion(t *testing.T) {
	r := newRig(t, Config{
		Config:                repl.Config{HeartbeatInterval: time.Hour},
		DefaultMode:           Pessimistic,
		StabilizationInterval: time.Millisecond,
		NumPartitions:         2,
	})
	// Stable seeded version.
	r.srv.Store().Insert(&item.Version{Key: "k0", Value: []byte("stable"),
		SrcReplica: 1, UpdateTime: 1, Deps: vclock.VC{0, 0, 0}})
	// Fresh remote version depending on an item of partition 1 that this
	// DC's partition 1 has not acknowledged: GSS[1] stays at 0 because the
	// fake peer partition never exchanges a VV.
	fresh := &item.Version{Key: "k0", Value: []byte("fresh"), SrcReplica: 1,
		UpdateTime: 100000, Deps: vclock.VC{0, 90000, 0}}
	r.inject(netemu.NodeID{DC: 1, Partition: 0}, &msg.ReplicateBatch{Versions: []*item.Version{fresh}})
	if !waitUntil(t, time.Second, func() bool { return r.srv.VV().Get(1) == 100000 }) {
		t.Fatal("replication not applied")
	}

	// Optimistic read sees the fresh version immediately.
	opt, err := r.srv.Get("k0", vclock.New(3), Optimistic)
	if err != nil {
		t.Fatal(err)
	}
	if string(opt.Value) != "fresh" {
		t.Fatalf("optimistic read = %q, want the freshest version", opt.Value)
	}

	// Pessimistic read hides it (deps not covered by GSS) and reports the
	// staleness.
	pess, err := r.srv.Get("k0", vclock.New(3), Pessimistic)
	if err != nil {
		t.Fatal(err)
	}
	if string(pess.Value) != "stable" {
		t.Fatalf("pessimistic read = %q, want the stable version", pess.Value)
	}
	if pess.Fresher != 1 || pess.Invisible != 1 {
		t.Fatalf("staleness = %+v", pess)
	}

	// Once partition 1 reports a VV covering the dependency, the GSS
	// advances and the fresh version becomes visible.
	r.inject(netemu.NodeID{DC: 0, Partition: 1},
		msg.VVExchange{Partition: 1, VV: vclock.VC{1 << 40, 1 << 40, 1 << 40}})
	if !waitUntil(t, time.Second, func() bool {
		reply, errGet := r.srv.Get("k0", vclock.New(3), Pessimistic)
		return errGet == nil && string(reply.Value) == "fresh"
	}) {
		t.Fatal("stable version must become visible after stabilization")
	}
}

func TestPessimisticLocalWritesAlwaysVisible(t *testing.T) {
	r := newRig(t, Config{
		Config:                repl.Config{HeartbeatInterval: time.Hour},
		DefaultMode:           Pessimistic,
		StabilizationInterval: time.Millisecond,
		NumPartitions:         2,
	})
	// A pessimistic client writes locally; its session dependencies include
	// its own previous write, which is beyond the GSS. Cure makes local
	// items visible regardless.
	ut, err := r.srv.Put("k0", []byte("mine"), vclock.New(3), Pessimistic)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := r.srv.Get("k0", vclock.New(3), Pessimistic)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Exists || reply.UpdateTime != ut {
		t.Fatalf("pessimistic client cannot read its own write: %+v", reply)
	}
}

func TestHAPessimisticHidesOptimisticLocalWrite(t *testing.T) {
	r := newRig(t, Config{
		Config:                repl.Config{HeartbeatInterval: time.Hour},
		DefaultMode:           Optimistic,
		StabilizationInterval: time.Millisecond,
		NumPartitions:         2,
		BlockTimeout:          time.Second,
	})
	// An optimistic session writes a local item depending on a remote item
	// this DC has not stabilized. Pessimistic sessions must not see it
	// (§IV-C).
	dv := vclock.VC{0, 70000, 0}
	r.inject(netemu.NodeID{DC: 1, Partition: 0}, &msg.Heartbeat{Time: 80000})
	if !waitUntil(t, time.Second, func() bool { return r.srv.VV().Get(1) >= 80000 }) {
		t.Fatal("heartbeat not applied")
	}
	if _, err := r.srv.Put("k0", []byte("optimistic"), dv, Optimistic); err != nil {
		t.Fatal(err)
	}
	reply, err := r.srv.Get("k0", vclock.New(3), Pessimistic)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Exists {
		t.Fatalf("unstable optimistic local write leaked to a pessimistic read: %+v", reply)
	}
}

func TestOperationsAfterCloseFail(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}})
	r.srv.Close()
	if _, err := r.srv.Put("k0", []byte("v"), vclock.New(3), Optimistic); err != ErrStopped {
		t.Fatalf("Put err = %v, want ErrStopped", err)
	}
	if _, err := r.srv.Get("k0", vclock.VC{0, 1 << 50, 0}, Optimistic); err != ErrStopped {
		t.Fatalf("Get err = %v, want ErrStopped", err)
	}
}

func TestCloseReleasesBlockedRequests(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}})
	done := make(chan error, 1)
	go func() {
		_, err := r.srv.Get("k0", vclock.VC{0, 1 << 50, 0}, Optimistic)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	r.srv.Close()
	select {
	case err := <-done:
		if err != ErrStopped {
			t.Fatalf("err = %v, want ErrStopped", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked request not released by Close")
	}
}

func TestHeartbeatLoopBroadcastsWhenIdle(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Millisecond}})
	id := netemu.NodeID{DC: 1, Partition: 0}
	if !waitUntil(t, time.Second, func() bool {
		for _, m := range r.received(id) {
			if _, ok := m.(*msg.Heartbeat); ok {
				return true
			}
		}
		return false
	}) {
		t.Fatal("idle server never sent a heartbeat")
	}
}

func TestStabilizationBroadcastsVV(t *testing.T) {
	r := newRig(t, Config{
		Config:                repl.Config{HeartbeatInterval: time.Hour},
		StabilizationInterval: time.Millisecond,
		NumPartitions:         2,
	})
	id := netemu.NodeID{DC: 0, Partition: 1}
	if !waitUntil(t, time.Second, func() bool {
		for _, m := range r.received(id) {
			if _, ok := m.(msg.VVExchange); ok {
				return true
			}
		}
		return false
	}) {
		t.Fatal("no VVExchange sent to the same-DC peer")
	}
}

func TestGCPrunesOldVersions(t *testing.T) {
	r := newRig(t, Config{
		Config:        repl.Config{HeartbeatInterval: time.Millisecond},
		GCInterval:    2 * time.Millisecond,
		NumPartitions: 2,
	})
	for i := 0; i < 5; i++ {
		if _, err := r.srv.Put("k0", []byte{byte(i)}, vclock.New(3), Optimistic); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.srv.Store().Stats().Versions; got != 5 {
		t.Fatalf("Versions = %d before GC", got)
	}
	// GC needs contributions from partition 1 (the fake peer).
	r.inject(netemu.NodeID{DC: 0, Partition: 1},
		msg.GCExchange{Partition: 1, TV: vclock.VC{1 << 40, 1 << 40, 1 << 40}})
	if !waitUntil(t, 2*time.Second, func() bool { return r.srv.Store().Stats().Versions == 1 }) {
		t.Fatalf("Versions = %d after GC, want 1", r.srv.Store().Stats().Versions)
	}
	head := r.srv.Store().Head("k0")
	if head == nil || head.Value[0] != 4 {
		t.Fatal("GC must keep the freshest version")
	}
}

func TestROTxLocalSlice(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Millisecond}, NumPartitions: 1})
	if _, err := r.srv.Put("a", []byte("va"), vclock.New(3), Optimistic); err != nil {
		t.Fatal(err)
	}
	if _, err := r.srv.Put("b", []byte("vb"), vclock.New(3), Optimistic); err != nil {
		t.Fatal(err)
	}
	items, err := r.srv.ROTx([]string{"a", "b"}, vclock.New(3), Optimistic, func(string) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("items = %v", items)
	}
	got := map[string]string{}
	for _, it := range items {
		got[it.Key] = string(it.Value)
	}
	if got["a"] != "va" || got["b"] != "vb" {
		t.Fatalf("tx read %v", got)
	}
}

func TestROTxEmptyKeys(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}})
	items, err := r.srv.ROTx(nil, vclock.New(3), Optimistic, func(string) int { return 0 })
	if err != nil || items != nil {
		t.Fatalf("items=%v err=%v", items, err)
	}
}

// TestROTxSnapshotIncludesUnstableReceived checks the OCC claim that the
// transactional snapshot is bounded by what the coordinator has *received*
// (VV), not what is stable: a version whose dependencies are covered by the
// snapshot is returned even though a stabilization protocol has not declared
// it stable.
func TestROTxSnapshotIncludesUnstableReceived(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Millisecond}, NumPartitions: 1})
	fresh := &item.Version{Key: "a", Value: []byte("fresh"), SrcReplica: 1,
		UpdateTime: 60000, Deps: vclock.VC{0, 50000, 0}}
	r.inject(netemu.NodeID{DC: 1, Partition: 0}, &msg.ReplicateBatch{Versions: []*item.Version{fresh}})
	if !waitUntil(t, time.Second, func() bool { return r.srv.VV().Get(1) >= 60000 }) {
		t.Fatal("replication not applied")
	}
	items, err := r.srv.ROTx([]string{"a"}, vclock.New(3), Optimistic, func(string) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || string(items[0].Value) != "fresh" {
		t.Fatalf("tx read %+v, want the received-but-unstable version", items)
	}
}

// TestROTxRespectsSnapshotBoundary: a version whose dependency vector is NOT
// covered by the snapshot (deps beyond TV) is excluded, and the older
// version is returned instead (Algorithm 2, line 43).
func TestROTxRespectsSnapshotBoundary(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}, NumPartitions: 1})
	r.srv.Store().Insert(&item.Version{Key: "a", Value: []byte("old"),
		SrcReplica: 1, UpdateTime: 10, Deps: vclock.VC{0, 0, 0}})
	// Version that depends on a DC2 item this server has not received:
	// deps[2] = 999 > VV[2] = 0, so TV cannot cover it.
	r.srv.Store().Insert(&item.Version{Key: "a", Value: []byte("beyond"),
		SrcReplica: 1, UpdateTime: 20, Deps: vclock.VC{0, 10, 999}})
	// Make VV[1] cover ut=20 so the slice wait passes.
	r.inject(netemu.NodeID{DC: 1, Partition: 0}, &msg.Heartbeat{Time: 30})
	if !waitUntil(t, time.Second, func() bool { return r.srv.VV().Get(1) >= 30 }) {
		t.Fatal("heartbeat not applied")
	}
	items, err := r.srv.ROTx([]string{"a"}, vclock.New(3), Optimistic, func(string) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || string(items[0].Value) != "old" {
		t.Fatalf("tx read %+v, want the version inside the snapshot", items)
	}
	if items[0].Fresher != 1 {
		t.Fatalf("staleness: fresher = %d, want 1", items[0].Fresher)
	}
}

func TestSliceReqFromPeerGetsResponse(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Millisecond}, NumPartitions: 2})
	if _, err := r.srv.Put("a", []byte("va"), vclock.New(3), Optimistic); err != nil {
		t.Fatal(err)
	}
	peer := netemu.NodeID{DC: 0, Partition: 1}
	r.inject(peer, sliceReq(77, peer, r.srv.VV(), "a"))
	if !waitUntil(t, 2*time.Second, func() bool {
		for _, m := range r.received(peer) {
			if resp, ok := m.(*msg.SliceResp); ok && resp.TxID == 77 {
				return len(resp.Items) == 1 && string(resp.Items[0].Value) == "va"
			}
		}
		return false
	}) {
		t.Fatal("no SliceResp delivered to the coordinator")
	}
}
