package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/netemu"
)

// evictionCluster builds the 3-DC durable HA-POCC deployment the forced-
// removal tests drive.
func evictionCluster(t *testing.T, maxDCs int) *Cluster {
	t.Helper()
	return newCluster(t, Config{
		NumDCs: 3, NumPartitions: 2, MaxDCs: maxDCs, Engine: HAPOCC,
		HeartbeatInterval:     time.Millisecond,
		StabilizationInterval: 10 * time.Millisecond,
		GCInterval:            20 * time.Millisecond,
		BlockTimeout:          200 * time.Millisecond,
		Latency:               UniformLatency(50*time.Microsecond, time.Millisecond),
		JitterFrac:            0.2,
		DataDir:               t.TempDir(),
		Seed:                  77,
	})
}

// TestForcedRemovalEvictsCrashedDC is the forced-removal end-to-end: a whole
// DC crashes without a goodbye; the survivors' stabilization freezes on its
// entry; ForceRemoveDC coordinates the eviction (agree on the dead DC's
// highest replicated timestamps, freeze membership at the agreed finals);
// stabilization resumes; and a DC joining afterwards still bootstraps the
// dead DC's replicated history out of the survivors' logs.
func TestForcedRemovalEvictsCrashedDC(t *testing.T) {
	const dead = 2
	c := evictionCluster(t, 4)

	// History originated by the doomed DC, replicated before the crash: this
	// must survive the eviction and reach a later joiner.
	ds, err := c.NewSession(dead)
	if err != nil {
		t.Fatal(err)
	}
	deadKeys := make([]string, 4)
	for i := range deadKeys {
		deadKeys[i] = fmt.Sprintf("doomed-%d", i)
		if err := ds.Put(deadKeys[i], []byte(fmt.Sprintf("from-dc2-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until every survivor holds the dead DC's writes (they are then ≤
	// any agreed final by construction).
	if !waitUntil(t, 10*time.Second, func() bool {
		for _, dc := range []int{0, 1} {
			for _, k := range deadKeys {
				r, err := c.ReadAt(dc, k)
				if err != nil || !r.Exists || r.SrcReplica != dead {
					return false
				}
			}
		}
		return true
	}) {
		t.Fatal("dc2's writes never replicated to the survivors")
	}

	if err := c.KillDC(dead); err != nil {
		t.Fatal(err)
	}
	// The membership mirror still counts the dead DC as a member, so the
	// survivors' GSS entry for it freezes once the dead DC's in-flight
	// traffic drains: nothing will ever advance it again.
	time.Sleep(100 * time.Millisecond)
	frozen := c.Server(0, 0).GSS().Get(dead)
	time.Sleep(100 * time.Millisecond)
	if got := c.Server(0, 0).GSS().Get(dead); got != frozen {
		t.Fatalf("GSS[%d] advanced from %d to %d with the DC dead", dead, frozen, got)
	}
	if got := c.Membership().Status[dead]; got != msg.DCActive {
		t.Fatalf("killed DC status = %d, want still Active until evicted", got)
	}

	if err := c.ForceRemoveDC(dead, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.Membership().Status[dead]; got != msg.DCLeft {
		t.Fatalf("evicted DC status = %d, want Left", got)
	}
	// Every survivor's authoritative view must mark the slot Left with an
	// agreed final covering the replicated history (the proposer is settled
	// when ForceRemoveDC returns; its verdict to the other survivors may
	// still be in flight).
	if !waitUntil(t, 10*time.Second, func() bool {
		for _, dc := range []int{0, 1} {
			for p := 0; p < 2; p++ {
				view := c.Server(dc, p).Repl().View()
				if view.Status[dead] != msg.DCLeft || view.FinalOf(dead) == 0 {
					return false
				}
			}
		}
		return true
	}) {
		for _, dc := range []int{0, 1} {
			for p := 0; p < 2; p++ {
				view := c.Server(dc, p).Repl().View()
				t.Logf("dc%d-p%d: status[%d]=%d final=%d", dc, p, dead, view.Status[dead], view.FinalOf(dead))
			}
		}
		t.Fatal("the eviction never reached every survivor's view")
	}

	// Stabilization must resume: a write made after the eviction becomes
	// covered by the survivors' GSS (impossible while a dead member wedges
	// the deployment).
	s0, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.Put("post-evict", []byte("alive")); err != nil {
		t.Fatal(err)
	}
	ut := c.Server(0, c.PartitionOf("post-evict")).VV().Get(0)
	if !waitUntil(t, 10*time.Second, func() bool {
		for _, dc := range []int{0, 1} {
			for p := 0; p < 2; p++ {
				if c.Server(dc, p).GSS().Get(0) < ut {
					return false
				}
			}
		}
		return true
	}) {
		t.Fatalf("GSS never covered the post-eviction write (stabilization wedged): %+v", c.ReplicationStats())
	}

	// A later joiner must bootstrap the dead DC's replicated history from
	// the survivors (departed-origin re-shipping): the dead DC itself is
	// gone, there is no other source.
	joiner, err := c.AddDC()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForJoin(joiner, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, k := range deadKeys {
		r, err := c.ReadAt(joiner, k)
		if err != nil || !r.Exists || r.SrcReplica != dead {
			t.Fatalf("joiner's %s = %+v (err %v), want dc%d's pre-crash version", k, r, err, dead)
		}
	}
}

// TestForcedRemovalDiscardsUnreplicatedSuffix: updates the dead DC accepted
// but never replicated to any survivor are above every attestation, so the
// agreed final excludes them — they are discarded for good, and the
// survivors converge without them. (This is the forced-removal consistency
// argument: evict at the agreed final, drop the un-agreed suffix whose loss
// no survivor can repair.)
func TestForcedRemovalDiscardsUnreplicatedSuffix(t *testing.T) {
	const dead = 2
	c := evictionCluster(t, 3)

	s, err := c.NewSession(dead)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("suffix-key", []byte("replicated")); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 10*time.Second, func() bool {
		for _, dc := range []int{0, 1} {
			r, err := c.ReadAt(dc, "suffix-key")
			if err != nil || !r.Exists || r.SrcReplica != dead {
				return false
			}
		}
		return true
	}) {
		t.Fatal("the replicated write never reached the survivors")
	}
	replicated, err := c.ReadAt(0, "suffix-key")
	if err != nil {
		t.Fatal(err)
	}

	// Cut the survivors off, then write the doomed suffix: these versions
	// exist only on dc2, which is about to die with them.
	for _, dc := range []int{0, 1} {
		for p := 0; p < 2; p++ {
			if err := c.DropInboundReplication(dc, p, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		if err := s.Put("suffix-key", []byte(fmt.Sprintf("lost-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.KillDC(dead); err != nil {
		t.Fatal(err)
	}
	// Let the dead DC's in-flight batches drain into the survivors' drops
	// before restoring delivery: nothing of the suffix may arrive late.
	time.Sleep(100 * time.Millisecond)
	for _, dc := range []int{0, 1} {
		for p := 0; p < 2; p++ {
			if err := c.DropInboundReplication(dc, p, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.ForceRemoveDC(dead, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// The survivors agree on the pre-cut state: the suffix is gone, the
	// replicated prefix intact, and both DCs converge on the same head.
	for _, dc := range []int{0, 1} {
		r, err := c.ReadAt(dc, "suffix-key")
		if err != nil || !r.Exists {
			t.Fatalf("dc%d read: %+v (err %v)", dc, r, err)
		}
		if r.UpdateTime != replicated.UpdateTime || r.SrcReplica != replicated.SrcReplica {
			t.Fatalf("dc%d head = %d@dc%d, want the replicated prefix %d@dc%d (un-agreed suffix must be discarded)",
				dc, r.UpdateTime, r.SrcReplica, replicated.UpdateTime, replicated.SrcReplica)
		}
	}
	// And the deployment is live: new writes stabilize.
	s0, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.Put("after", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	ut := c.Server(0, c.PartitionOf("after")).VV().Get(0)
	if !waitUntil(t, 10*time.Second, func() bool {
		for _, dc := range []int{0, 1} {
			for p := 0; p < 2; p++ {
				if c.Server(dc, p).GSS().Get(0) < ut {
					return false
				}
			}
		}
		return true
	}) {
		t.Fatalf("stabilization wedged after eviction: %+v", c.ReplicationStats())
	}
}

// TestForcedRemovalValidation: evicting a healthy deployment's last members
// or unknown slots is refused.
func TestForcedRemovalValidation(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 2, NumPartitions: 1, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		DataDir:           t.TempDir(),
	})
	if err := c.ForceRemoveDC(7, time.Second); err == nil {
		t.Fatal("evicting an unknown DC must fail")
	}
	if err := c.KillDC(-1); err == nil {
		t.Fatal("killing an unknown DC must fail")
	}
	if err := c.ForceRemoveDC(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.ForceRemoveDC(1, time.Second); err == nil {
		t.Fatal("evicting a departed DC must fail")
	}
	// No active survivor is left besides dc0's own partition — removing the
	// last member is refused.
	if err := c.ForceRemoveDC(0, time.Second); err == nil {
		t.Fatal("evicting the last DC must fail")
	}
}

// TestJoinTimeoutUnwindsCleanly: a joiner that cannot complete its bootstrap
// (its inbound links are severed) gives up after JoinTimeout, and
// WaitForJoin tears the half-joined DC down: servers gone, slot burned, the
// rest of the deployment unaffected. The joiner cannot hear the survivors'
// acks, so its leave times out and the survivors evict it instead: their
// views mark it Left.
func TestJoinTimeoutUnwindsCleanly(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 2, NumPartitions: 2, MaxDCs: 3, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		// Enough latency that the join cannot complete before the test cuts
		// the joiner's inbound links off.
		Latency:     UniformLatency(20*time.Millisecond, 25*time.Millisecond),
		DataDir:     t.TempDir(),
		JoinTimeout: 400 * time.Millisecond,
		Seed:        9,
	})
	joiner, err := c.AddDC()
	if err != nil {
		t.Fatal(err)
	}
	// Sever the joiner's inbound replication plane: no answer to its
	// JoinRequests, no catch-up stream — the bootstrap cannot finish.
	for p := 0; p < 2; p++ {
		if err := c.DropInboundReplication(joiner, p, true); err != nil {
			t.Fatal(err)
		}
	}
	err = c.WaitForJoin(joiner, 20*time.Second)
	if err == nil {
		t.Fatal("WaitForJoin succeeded with the joiner cut off; want a JoinTimeout unwind")
	}
	for p := 0; p < 2; p++ {
		if c.Server(joiner, p) != nil {
			t.Fatalf("dc%d-p%d still running after the unwind", joiner, p)
		}
	}
	if got := c.Membership().Status[joiner]; got != msg.DCLeft {
		t.Fatalf("unwound joiner status = %d, want Left (slot burned)", got)
	}
	if !waitUntil(t, 5*time.Second, func() bool {
		for dc := 0; dc < 2; dc++ {
			for p := 0; p < 2; p++ {
				if c.Server(dc, p).Repl().View().Get(joiner) != msg.DCLeft {
					return false
				}
			}
		}
		return true
	}) {
		t.Fatal("a survivor's view never marked the unwound joiner Left")
	}
	// The seed members are unaffected.
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("still-alive", []byte("yes")); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 10*time.Second, func() bool {
		r, err := c.ReadAt(1, "still-alive")
		return err == nil && r.Exists
	}) {
		t.Fatal("replication between the seed DCs broken after the unwind")
	}
}

// TestLeaveDCPartitionsInParallel: a DC's partitions leave in parallel, so
// leaves that cannot finish cost the caller one timeout, not one per
// partition, and the error still names every partition, in order. The
// joiner here is TestJoinTimeoutUnwindsCleanly's, at three partitions: it
// cannot hear the survivors' acks, so each of its leaves times out.
func TestLeaveDCPartitionsInParallel(t *testing.T) {
	const timeout = 400 * time.Millisecond
	c := newCluster(t, Config{
		NumDCs: 2, NumPartitions: 3, MaxDCs: 3, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		Latency:           UniformLatency(20*time.Millisecond, 25*time.Millisecond),
		DataDir:           t.TempDir(),
		JoinTimeout:       timeout,
		Seed:              9,
	})
	joiner, err := c.AddDC()
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if err := c.DropInboundReplication(joiner, p, true); err != nil {
			t.Fatal(err)
		}
	}
	if !waitUntil(t, 10*time.Second, func() bool {
		for p := 0; p < 3; p++ {
			if !c.Server(joiner, p).Repl().JoinFailed() {
				return false
			}
		}
		return true
	}) {
		t.Fatal("the cut-off joiner never gave up joining")
	}
	start := time.Now()
	_, err = c.leaveDC(joiner, timeout)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("the cut-off joiner's leave succeeded; want a timeout on every partition")
	}
	msg := err.Error()
	for p, at := 0, 0; p < 3; p++ {
		i := strings.Index(msg[at:], fmt.Sprintf("partition %d:", p))
		if i < 0 {
			t.Fatalf("leave error does not name partition %d after the ones before it: %v", p, err)
		}
		at += i
	}
	if limit := timeout * 3 / 2; elapsed > limit {
		t.Fatalf("three leaves that cannot finish took %v, want at most %v (one %v timeout)", elapsed, limit, timeout)
	}
	if err := c.WaitForJoin(joiner, 20*time.Second); err == nil {
		t.Fatal("WaitForJoin succeeded with the joiner cut off; want a JoinTimeout unwind")
	}
}

// TestEvictAfterSplitJoinLeave runs a forced removal on a deployment that has
// already been reshaped every other way — a partition split, a DC joined, that
// DC gracefully gone again — the sequence a shell session once stalled on. The
// eviction verdict travels as a plain MembershipUpdate, so this is also its
// end-to-end guard: the round completes on the split's new partition too,
// every survivor's view freezes the dead DC at an agreed final, and
// stabilization resumes.
func TestEvictAfterSplitJoinLeave(t *testing.T) {
	const dead = 1
	c := newCluster(t, Config{
		NumDCs: 3, NumPartitions: 2, MaxDCs: 4, MaxPartitions: 4, Engine: HAPOCC,
		HeartbeatInterval:     time.Millisecond,
		StabilizationInterval: 10 * time.Millisecond,
		BlockTimeout:          200 * time.Millisecond,
		Latency:               UniformLatency(50*time.Microsecond, time.Millisecond),
		JitterFrac:            0.2,
		DataDir:               t.TempDir(),
		Seed:                  78,
	})
	if _, err := c.SplitPartition(0); err != nil {
		t.Fatal(err)
	}
	joiner, err := c.AddDC()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForJoin(joiner, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveDC(joiner); err != nil {
		t.Fatal(err)
	}
	if err := c.KillDC(dead); err != nil {
		t.Fatal(err)
	}
	if err := c.ForceRemoveDC(dead, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	survivors := []int{0, 2}
	parts := c.NumPartitions()
	if parts != 3 {
		t.Fatalf("%d partitions after the split, want 3", parts)
	}
	if !waitUntil(t, 10*time.Second, func() bool {
		for _, dc := range survivors {
			for p := 0; p < parts; p++ {
				view := c.Server(dc, p).Repl().View()
				if view.Get(dead) != msg.DCLeft || view.FinalOf(dead) == 0 {
					return false
				}
			}
		}
		return true
	}) {
		for _, dc := range survivors {
			for p := 0; p < parts; p++ {
				view := c.Server(dc, p).Repl().View()
				t.Logf("dc%d-p%d: status[%d]=%d final=%d", dc, p, dead, view.Get(dead), view.FinalOf(dead))
			}
		}
		t.Fatal("the eviction never reached every survivor's view")
	}
	// A write made after the eviction becomes stable on every survivor:
	// impossible while a dead member pins the GSS.
	s0, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.Put("post-evict", []byte("alive")); err != nil {
		t.Fatal(err)
	}
	ut := c.Server(0, c.PartitionOf("post-evict")).VV().Get(0)
	if !waitUntil(t, 10*time.Second, func() bool {
		for _, dc := range survivors {
			for p := 0; p < parts; p++ {
				if c.Server(dc, p).GSS().Get(0) < ut {
					return false
				}
			}
		}
		return true
	}) {
		t.Fatalf("GSS never covered a post-eviction write (%d): %+v", ut, c.ReplicationStats())
	}
}

// TestForcedRemovalMirrorsRaisedFinal: the membership mirror records the
// final the survivors' views settle on (settleFinal), not the one the
// departure round returned. dc0, cut off before the dead DC's last write,
// has already adopted a verdict below that write, so its round returns that
// final at once; dc1, which holds the write, raises the final to its entry
// as ForceRemoveDC hands it the verdict, and the settled view reaches dc0
// too. dc0, once its link is back, fetches the write up to the raised final,
// and dc1 restarted from the mirror keeps it: started at the round's final,
// it would drop the write from its replay, and no sibling's view would tell
// it otherwise (dc0 missed the raised view dc1 sent).
func TestForcedRemovalMirrorsRaisedFinal(t *testing.T) {
	const dead, key = 2, "straggler"
	c := newCluster(t, Config{
		NumDCs: 3, NumPartitions: 1, Engine: POCC,
		Latency: UniformLatency(50*time.Microsecond, time.Millisecond),
		DataDir: t.TempDir(),
		Seed:    5,
	})
	if err := c.DropInboundReplication(0, 0, true); err != nil {
		t.Fatal(err)
	}
	s, err := c.NewSession(dead)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	r, err := c.ReadAt(dead, key)
	if err != nil {
		t.Fatal(err)
	}
	ut := r.UpdateTime
	if !waitUntil(t, 5*time.Second, func() bool { return c.Server(1, 0).VV()[dead] >= ut }) {
		t.Fatal("dc1 never held the dead DC's write")
	}
	if err := c.KillDC(dead); err != nil {
		t.Fatal(err)
	}
	if e := c.Server(0, 0).VV()[dead]; e >= ut {
		t.Fatalf("dc0 entry %d: the cut let the write through (%d)", e, ut)
	}
	c.Server(0, 0).Repl().Handle(netemu.NodeID{DC: 1}, msg.MembershipUpdate{View: msg.Membership{
		Epoch: 1, Status: []uint8{msg.DCActive, msg.DCActive, msg.DCLeft},
	}})
	if err := c.ForceRemoveDC(dead, time.Second); err != nil {
		t.Fatal(err)
	}
	c.memberMu.Lock()
	f := c.finals[dead][0]
	c.memberMu.Unlock()
	if f < ut {
		t.Fatalf("mirror final %d, want dc1's raise to its entry (>= %d)", f, ut)
	}
	for dc := range 2 {
		if got := c.Server(dc, 0).Repl().View().FinalOf(dead); got != f {
			t.Fatalf("dc%d final = %d, want the mirror's %d", dc, got, f)
		}
	}
	if err := c.DropInboundReplication(0, 0, false); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 10*time.Second, func() bool { return c.Server(0, 0).VV()[dead] >= ut }) {
		t.Fatalf("dc0 VV = %v, want the gap to the raised final filled (>= %d)", c.Server(0, 0).VV(), ut)
	}
	if r, err := c.ReadAt(0, key); err != nil || !r.Exists || r.UpdateTime != ut {
		t.Fatalf("ReadAt(dc0, %q) = %+v, %v, want the write at %d", key, r, err, ut)
	}

	if err := c.RestartServer(1, 0); err != nil {
		t.Fatal(err)
	}
	srv := c.Server(1, 0)
	if got := srv.Repl().View().FinalOf(dead); got != f {
		t.Fatalf("restarted at final %d, want the mirror's %d", got, f)
	}
	if r, err := c.ReadAt(1, key); err != nil || !r.Exists || r.UpdateTime != ut {
		t.Fatalf("ReadAt(dc1, %q) = %+v, %v after the restart, want the write at %d", key, r, err, ut)
	}
	// The entry restarts at the durable attestation and catches up to the
	// final from dc0; capped at a lower final it never could.
	if !waitUntil(t, 5*time.Second, func() bool { return srv.VV()[dead] >= ut }) {
		t.Fatalf("restarted VV = %v, want the entry for dc%d at or above %d", srv.VV(), dead, ut)
	}
}

// TestRestartedSurvivorReachesDepartedFinal: dc1, the survivor that holds
// the dead DC's last write, restarts after the forced removal while dc0, the
// only other survivor, is cut off and short of the final. No catch-up round
// can lift dc1 back there — dc0's claim stops at its own entry — so the
// restart must restore the entry from what dc1 durably holds, or a GET that
// depends on the write blocks at dc1 for good. The seal attests it; a
// catch-up claim that fills a gap to the final does too, which dc0's own
// restart checks.
func TestRestartedSurvivorReachesDepartedFinal(t *testing.T) {
	const dead, key = 2, "departed"
	c := newCluster(t, Config{
		NumDCs: 3, NumPartitions: 1, Engine: POCC,
		Latency: UniformLatency(50*time.Microsecond, time.Millisecond),
		DataDir: t.TempDir(),
		Seed:    7,
	})
	if err := c.DropInboundReplication(0, 0, true); err != nil {
		t.Fatal(err)
	}
	w, err := c.NewSession(dead)
	if err != nil {
		t.Fatal(err)
	}
	ut, _, err := w.PutMeta(key, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, func() bool { return c.Server(1, 0).VV()[dead] >= ut }) {
		t.Fatal("dc1 never held the dead DC's write")
	}
	// A reader at dc1 that has seen the write depends on it.
	reader, err := c.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := reader.Get(key); err != nil || string(v) != "v" {
		t.Fatalf("Get(%q) at dc1 = %q, %v", key, v, err)
	}
	if err := c.KillDC(dead); err != nil {
		t.Fatal(err)
	}
	// dc0 adopts the removal directly (the cut drops the round's acks), so
	// its round returns at once and dc1 raises the final to its entry.
	c.Server(0, 0).Repl().Handle(netemu.NodeID{DC: 1}, msg.MembershipUpdate{View: msg.Membership{
		Epoch: 1, Status: []uint8{msg.DCActive, msg.DCActive, msg.DCLeft},
	}})
	if err := c.ForceRemoveDC(dead, time.Second); err != nil {
		t.Fatal(err)
	}
	f := c.Server(1, 0).Repl().View().FinalOf(dead)
	if f < ut {
		t.Fatalf("dc1 final %d, want its raise to its entry (>= %d)", f, ut)
	}
	if e := c.Server(0, 0).VV()[dead]; e >= ut {
		t.Fatalf("dc0 entry %d: the cut let the write through (%d)", e, ut)
	}

	if err := c.RestartServer(1, 0); err != nil {
		t.Fatal(err)
	}
	srv := c.Server(1, 0)
	if !waitUntil(t, 2*time.Second, func() bool { return srv.VV()[dead] >= f }) {
		t.Fatalf("restarted VV = %v, want the entry for dc%d back at the final %d", srv.VV(), dead, f)
	}
	got := make(chan error, 1)
	go func() {
		v, err := reader.Get(key)
		if err == nil && string(v) != "v" {
			err = fmt.Errorf("read %q", v)
		}
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("Get(%q) at the restarted dc1: %v", key, err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Get(%q) at the restarted dc1 still blocked on the write at %d", key, ut)
	}

	// dc0, healed, fills its gap to the final through dc1's catch-up claim;
	// restarted while dc1 hears nothing, it must come back at the final too.
	if err := c.DropInboundReplication(0, 0, false); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, func() bool { return c.Server(0, 0).VV()[dead] >= f }) {
		t.Fatalf("dc0 VV = %v, want the gap to the final %d filled", c.Server(0, 0).VV(), f)
	}
	if err := c.DropInboundReplication(1, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartServer(0, 0); err != nil {
		t.Fatal(err)
	}
	if e := c.Server(0, 0).VV()[dead]; e < f {
		t.Fatalf("restarted dc0 entry %d, want the final %d", e, f)
	}
}
