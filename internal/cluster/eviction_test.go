package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/msg"
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
// rest of the deployment unaffected.
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
