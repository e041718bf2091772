package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/causaltest"
	"repro/internal/keyspace"
	"repro/internal/vclock"
)

// TestSplitPartitionBasic splits a quiescent deployment and checks that the
// moved history survives and routing follows the new layout.
func TestSplitPartitionBasic(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 3, NumPartitions: 2, MaxPartitions: 4, Engine: POCC,
		Latency: UniformLatency(50*time.Microsecond, 500*time.Microsecond),
		Seed:    1,
	})

	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("split-k%d", i)
		if err := s.Put(keys[i], []byte("v-"+keys[i])); err != nil {
			t.Fatal(err)
		}
	}

	np, err := c.SplitPartition(0)
	if err != nil {
		t.Fatal(err)
	}
	if np != 2 {
		t.Fatalf("new partition = %d, want 2", np)
	}
	if c.NumPartitions() != 3 {
		t.Fatalf("NumPartitions = %d, want 3", c.NumPartitions())
	}
	tbl := c.SlotTable()
	if tbl.Epoch == 0 {
		t.Fatal("split did not advance the slot epoch")
	}
	if got := len(tbl.SlotsOwnedBy(np)); got == 0 {
		t.Fatal("split moved no slots to the new partition")
	}

	// Every key must still be readable from every DC — the moved ones now
	// served by the new owner.
	movedKeys := 0
	for _, k := range keys {
		if c.PartitionOf(k) == np {
			movedKeys++
		}
		for dc := 0; dc < 3; dc++ {
			sd, err := c.NewSession(dc)
			if err != nil {
				t.Fatal(err)
			}
			if !waitUntil(t, 5*time.Second, func() bool {
				v, errGet := sd.Get(k)
				return errGet == nil && string(v) == "v-"+k
			}) {
				t.Fatalf("dc%d lost %q (owner %d) after split", dc, k, c.PartitionOf(k))
			}
		}
	}
	if movedKeys == 0 {
		t.Fatal("no test key routed to the new partition; widen the key set")
	}

	// New writes to moved keys go through the new owner and replicate.
	for _, k := range keys {
		if c.PartitionOf(k) != np {
			continue
		}
		if err := s.Put(k, []byte("v2")); err != nil {
			t.Fatalf("put %q after split: %v", k, err)
		}
		for dc := 0; dc < 3; dc++ {
			sd, _ := c.NewSession(dc)
			if !waitUntil(t, 5*time.Second, func() bool {
				v, errGet := sd.Get(k)
				return errGet == nil && string(v) == "v2"
			}) {
				t.Fatalf("dc%d did not converge on post-split write to %q", dc, k)
			}
		}
		break
	}
}

// TestSplitPartitionDurable splits a durable deployment (the copy streams
// out of the donors' WALs) and restarts a new-partition server afterwards
// to check the inherited history is durable at the new owner.
func TestSplitPartitionDurable(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 2, NumPartitions: 2, MaxPartitions: 3, Engine: POCC,
		DataDir: t.TempDir(),
		Seed:    1,
	})

	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 48)
	for i := range keys {
		keys[i] = fmt.Sprintf("durable-k%d", i)
		if err := s.Put(keys[i], []byte("d-"+keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	np, err := c.SplitPartition(1)
	if err != nil {
		t.Fatal(err)
	}
	var moved string
	for _, k := range keys {
		if c.PartitionOf(k) == np {
			moved = k
			break
		}
	}
	if moved == "" {
		t.Fatal("no key moved to the new partition")
	}
	if err := c.RestartServer(0, np); err != nil {
		t.Fatal(err)
	}
	sd, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, func() bool {
		v, errGet := sd.Get(moved)
		return errGet == nil && string(v) == "d-"+moved
	}) {
		t.Fatalf("restarted new owner lost inherited key %q", moved)
	}
}

// TestMoveSlots moves a slot range between existing partitions and checks
// history and routing follow.
func TestMoveSlots(t *testing.T) {
	c := newCluster(t, Config{NumDCs: 2, NumPartitions: 2, Engine: POCC, Seed: 1})

	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 48)
	for i := range keys {
		keys[i] = fmt.Sprintf("move-k%d", i)
		if err := s.Put(keys[i], []byte("m-"+keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	// Move every slot p0 owns to p1: p1 becomes the whole keyspace's owner.
	slots := c.SlotTable().SlotsOwnedBy(0)
	if err := c.MoveSlots(slots, 1); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if got := c.PartitionOf(k); got != 1 {
			t.Fatalf("key %q still routed to %d after move", k, got)
		}
		for dc := 0; dc < 2; dc++ {
			sd, _ := c.NewSession(dc)
			if !waitUntil(t, 5*time.Second, func() bool {
				v, errGet := sd.Get(k)
				return errGet == nil && string(v) == "m-"+k
			}) {
				t.Fatalf("dc%d lost %q after slot move", dc, k)
			}
		}
	}
	if err := s.Put(keys[0], []byte("post-move")); err != nil {
		t.Fatalf("put after move: %v", err)
	}
}

// TestSplitPartitionUnderLoad is the reshard acceptance check: sessions in
// every DC write continuously while the split runs; afterwards no
// acknowledged write may be lost (each key is written by one session, so
// the last acknowledged value must be the LWW winner everywhere).
func TestSplitPartitionUnderLoad(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 3, NumPartitions: 2, MaxPartitions: 4, Engine: POCC,
		Latency: UniformLatency(50*time.Microsecond, 300*time.Microsecond),
		Seed:    1,
	})

	const writers = 3 // one per DC, disjoint key spaces
	var wg sync.WaitGroup
	stop := make(chan struct{})
	type acked struct {
		key, val string
	}
	lastAcked := make([][]acked, writers)
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := c.NewSession(w)
			if err != nil {
				errs[w] = err
				return
			}
			final := make(map[string]string)
			for i := 0; ; i++ {
				select {
				case <-stop:
					for k, v := range final {
						lastAcked[w] = append(lastAcked[w], acked{k, v})
					}
					return
				default:
				}
				k := fmt.Sprintf("load-w%d-k%d", w, i%32)
				v := fmt.Sprintf("w%d-i%d", w, i)
				if err := s.Put(k, []byte(v)); err != nil {
					errs[w] = fmt.Errorf("put %q: %w", k, err)
					return
				}
				final[k] = v
			}
		}(w)
	}

	time.Sleep(20 * time.Millisecond) // let writes hit both partitions
	np, err := c.SplitPartition(0)
	if err != nil {
		close(stop)
		wg.Wait()
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // keep writing through the new epoch
	close(stop)
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}

	movedKeys := 0
	for w := 0; w < writers; w++ {
		for _, a := range lastAcked[w] {
			if c.PartitionOf(a.key) == np {
				movedKeys++
			}
			for dc := 0; dc < 3; dc++ {
				sd, err := c.NewSession(dc)
				if err != nil {
					t.Fatal(err)
				}
				if !waitUntil(t, 10*time.Second, func() bool {
					v, errGet := sd.Get(a.key)
					return errGet == nil && string(v) == a.val
				}) {
					v, _ := sd.Get(a.key)
					t.Fatalf("acked write lost: dc%d key %q = %q, want %q (owner %d, table %+v)",
						dc, a.key, v, a.val, c.PartitionOf(a.key), c.SlotTable().Epoch)
				}
			}
		}
	}
	if movedKeys == 0 {
		t.Fatal("workload never touched a moved slot; widen the key set")
	}
}

// TestMoveSlotsLaggingTargetNoOverclaim pins the soundness condition of the
// reshard bootstrap claim: when slots move to a PRE-EXISTING partition whose
// own replication stream lags, the target must NOT adopt the donors'
// version vectors — they cover versions of the target's original slots that
// it never received, and the inflated vector would both satisfy causal
// waits for missing versions and become a catch-up floor that permanently
// skips re-requesting them. The test severs the target's inbound link,
// writes into the hole, reshards, and requires (a) the target's vector not
// to jump over the hole and (b) the hole to heal once the link is restored.
func TestMoveSlotsLaggingTargetNoOverclaim(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 2, NumPartitions: 2, Engine: POCC,
		DataDir: t.TempDir(),
		Seed:    1,
	})

	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	var donorKeys, targetKeys []string
	for i := 0; len(donorKeys) < 8 || len(targetKeys) < 8; i++ {
		k := fmt.Sprintf("lag-k%d", i)
		if c.PartitionOf(k) == 0 {
			donorKeys = append(donorKeys, k)
		} else {
			targetKeys = append(targetKeys, k)
		}
	}
	for _, k := range append(append([]string(nil), donorKeys...), targetKeys...) {
		if err := s.Put(k, []byte("base-"+k)); err != nil {
			t.Fatal(err)
		}
	}

	// Sever the target's inbound replication at DC1 and write into the gap:
	// these versions exist only at DC0 until the link heals.
	if err := c.DropInboundReplication(1, 1, true); err != nil {
		t.Fatal(err)
	}
	var sevMin vclock.Timestamp
	for i, k := range targetKeys {
		ut, _, err := s.PutMeta(k, []byte("sev-"+k))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || ut < sevMin {
			sevMin = ut
		}
	}
	// Push the donor's column past the severed timestamps, so the donor VV
	// at DC1 genuinely overclaims the target's gap — the bait the old
	// seeding logic would have swallowed.
	for _, k := range donorKeys {
		if err := s.Put(k, []byte("post-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if !waitUntil(t, 5*time.Second, func() bool {
		return c.Server(1, 0).VV().Get(0) >= sevMin
	}) {
		t.Fatal("donor column at DC1 never advanced past the severed writes")
	}

	if err := c.MoveSlots(c.SlotTable().SlotsOwnedBy(0), 1); err != nil {
		t.Fatal(err)
	}
	if got := c.Server(1, 1).VV().Get(0); got >= sevMin {
		t.Fatalf("lagging target's VV[0] = %d claims the severed writes (first at %d): the reshard overclaimed", got, sevMin)
	}

	// Heal the link: the sequence gap must be detected and every severed
	// write recovered — an inflated catch-up floor would skip them forever.
	if err := c.DropInboundReplication(1, 1, false); err != nil {
		t.Fatal(err)
	}
	for _, k := range targetKeys {
		k := k
		if !waitUntil(t, 10*time.Second, func() bool {
			r, err := c.ReadAt(1, k)
			return err == nil && r.Exists && string(r.Value) == "sev-"+k
		}) {
			t.Fatalf("severed write to %q never reached DC1 (catch-up stats %+v)", k, c.ReplicationStats())
		}
	}
	for _, k := range donorKeys {
		k := k
		if !waitUntil(t, 10*time.Second, func() bool {
			r, err := c.ReadAt(1, k)
			return err == nil && r.Exists && string(r.Value) == "post-"+k
		}) {
			t.Fatalf("moved key %q lost at DC1 after the move", k)
		}
	}
}

// TestRestartMidReshardBootsFenced checks which table a crash-restarted
// server boots with: the cluster's own outside a reshard, and inside a
// reshard's fence-to-flip window the staged next-epoch table, not the
// pre-reshard one: an unfenced donor incarnation would accept
// moved-slot writes that are stranded — acknowledged but invisible — once
// routing flips to the new owner.
func TestRestartMidReshardBootsFenced(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 2, NumPartitions: 2, Engine: POCC,
		DataDir: t.TempDir(),
		Seed:    1,
	})
	cur := c.SlotTable()
	// Outside any reshard — before the first one, too — a restarted server
	// boots with the table the cluster routes by.
	if err := c.RestartServer(0, 1); err != nil {
		t.Fatal(err)
	}
	if got := c.Server(0, 1).SlotTable(); cur.Epoch != 0 || *got != *cur {
		t.Fatalf("server restarted before any reshard holds %+v, want the cluster's epoch-0 table", got)
	}
	next, err := cur.MoveSlots(cur.SlotsOwnedBy(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Stage the table exactly as reshard() does before installing the fence,
	// then crash-restart a donor inside the window.
	c.bootSlots.Store(next)
	defer c.bootSlots.Store(cur)
	if err := c.RestartServer(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.Server(0, 0).SlotEpoch(); got < next.Epoch {
		t.Fatalf("restarted donor booted at slot epoch %d, want the staged epoch %d (unfenced incarnation would strand moved-slot writes)",
			got, next.Epoch)
	}
}

// TestReshardFromThreePartitions reshards a deployment whose partition count
// does not divide the slot universe: a 2 × 3 deployment with headroom is
// split and slot-moved under a causally checked workload (one writer per DC
// on its own keys, reading the other's). No session guarantee may break, no
// acknowledged write may be lost, and the router and every server must end
// on one table.
func TestReshardFromThreePartitions(t *testing.T) {
	const dcs, keys = 2, 24
	c := newCluster(t, Config{
		NumDCs: dcs, NumPartitions: 3, MaxPartitions: 6, Engine: POCC,
		Latency: UniformLatency(50*time.Microsecond, 300*time.Microsecond),
		Seed:    1,
	})
	key := func(w, i int) string { return fmt.Sprintf("three-w%d-k%d", w, i%keys) }

	reg := causaltest.NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	lastAcked := make([]map[string]string, dcs)
	for w := 0; w < dcs; w++ {
		sess, err := c.NewSession(w)
		if err != nil {
			t.Fatal(err)
		}
		lastAcked[w] = make(map[string]string)
		wg.Add(1)
		go func(w int, cs *causaltest.Session) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch i % 4 {
				case 0, 1:
					v := fmt.Sprintf("w%d-i%d", w, i)
					if err = cs.Put(key(w, i), []byte(v)); err == nil {
						lastAcked[w][key(w, i)] = v
					}
				case 2:
					_, err = cs.Get(key(1-w, i))
				default:
					_, err = cs.ROTx([]string{key(w, i), key(1-w, i), key(1-w, i+1)})
				}
				if err != nil {
					t.Errorf("dc%d op %d: %v", w, i, err)
					return
				}
			}
		}(w, causaltest.NewSession(reg, sess, sessionName(w, 0)))
	}
	reshard := func() error {
		time.Sleep(20 * time.Millisecond) // let the workload reach every partition
		np, err := c.SplitPartition(0)
		if err != nil {
			return err
		}
		time.Sleep(20 * time.Millisecond)
		return c.MoveSlots(c.SlotTable().SlotsOwnedBy(1), np)
	}
	err := reshard()
	time.Sleep(20 * time.Millisecond) // keep going through the last epoch
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range reg.Violations() {
		t.Error(v)
	}

	want := c.SlotTable()
	if want.Epoch != 2 || want.Parts != 4 || len(want.SlotsOwnedBy(1)) != 0 {
		t.Fatalf("router table after split + move: epoch %d, %d parts, p1 owns %d slots",
			want.Epoch, want.Parts, len(want.SlotsOwnedBy(1)))
	}
	for dc := 0; dc < dcs; dc++ {
		for p := 0; p < c.NumPartitions(); p++ {
			if !waitUntil(t, 2*time.Second, func() bool { return *c.Server(dc, p).SlotTable() == *want }) {
				t.Fatalf("dc%d-p%d holds a table other than the router's (epoch %d, want %d)",
					dc, p, c.Server(dc, p).SlotEpoch(), want.Epoch)
			}
		}
		sd, err := c.NewSession(dc)
		if err != nil {
			t.Fatal(err)
		}
		for w := range lastAcked {
			for k, v := range lastAcked[w] {
				if !waitUntil(t, 10*time.Second, func() bool {
					got, errGet := sd.Get(k)
					return errGet == nil && string(got) == v
				}) {
					got, _ := sd.Get(k)
					t.Fatalf("acked write lost: dc%d key %q = %q, want %q (owner %d)", dc, k, got, v, c.PartitionOf(k))
				}
			}
		}
	}
}

// TestSplitRoutingMatchesServers checks the cluster router and every
// server's own table agree after a split (no server left on the old epoch).
func TestSplitRoutingMatchesServers(t *testing.T) {
	c := newCluster(t, Config{NumDCs: 2, NumPartitions: 2, MaxPartitions: 4, Engine: POCC, Seed: 1})
	if _, err := c.SplitPartition(0); err != nil {
		t.Fatal(err)
	}
	want := c.SlotTable()
	for dc := 0; dc < 2; dc++ {
		for p := 0; p < c.NumPartitions(); p++ {
			srv := c.Server(dc, p)
			if srv == nil {
				t.Fatalf("no server dc%d-p%d", dc, p)
			}
			if !waitUntil(t, 2*time.Second, func() bool {
				return srv.SlotEpoch() >= want.Epoch
			}) {
				t.Fatalf("dc%d-p%d stuck below epoch %d", dc, p, want.Epoch)
			}
		}
	}
	// One owner per key: the router agrees with keyspace.SlotOf.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if got, want := c.PartitionOf(k), int(want.Owner[keyspace.SlotOf(k)]); got != want {
			t.Fatalf("router sends %q to %d, table says %d", k, got, want)
		}
	}
}

// TestReshardCopyOmitsEvictedSuffix: a forced removal discards the dead DC's
// versions above the agreed final from every survivor's chains, but the
// survivors' write-ahead logs keep them until the next checkpoint. A split
// afterwards must copy what the donors serve, not what their logs hold: the
// new owner may not bring the discarded suffix back, whose dependencies can
// never arrive.
func TestReshardCopyOmitsEvictedSuffix(t *testing.T) {
	const dead = 2
	// An hour-long Δ: a batch leaves only when the buffer fills.
	c := newCluster(t, Config{
		NumDCs: 3, NumPartitions: 2, MaxPartitions: 4, Engine: POCC,
		HeartbeatInterval: time.Hour,
		DataDir:           t.TempDir(),
		Seed:              1,
	})
	// A key whose slot the split of its partition moves: the donor keeps the
	// even half of its slots.
	var key string
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("suffix-%d", i)
		owned := c.SlotTable().SlotsOwnedBy(c.PartitionOf(k))
		for j := 1; j < len(owned); j += 2 {
			if owned[j] == keyspace.SlotOf(k) {
				key = k
			}
		}
	}
	p := c.PartitionOf(key)
	s, err := c.NewSession(dead)
	if err != nil {
		t.Fatal(err)
	}
	puts := func(prefix string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := retry(func() error { return s.Put(key, []byte(fmt.Sprintf("%s-%d", prefix, i))) }); err != nil {
				t.Fatal(err)
			}
		}
	}

	// One full buffer replicates: the survivors attest it.
	puts("attested", 128)
	if !waitUntil(t, 10*time.Second, func() bool {
		for _, dc := range []int{0, 1} {
			if r, err := c.ReadAt(dc, key); err != nil || string(r.Value) != "attested-127" {
				return false
			}
		}
		return true
	}) {
		t.Fatal("the first batch never reached the survivors")
	}
	attested, err := c.ReadAt(0, key)
	if err != nil {
		t.Fatal(err)
	}
	// A buffered tail dies with a crash, so the restarted server's next
	// batch reaches the survivors over a hole: they install it, freeze the
	// link and ask for catch-up, which the dead-to-be DC never hears.
	puts("lost", 64)
	if err := c.RestartServer(dead, p); err != nil {
		t.Fatal(err)
	}
	if err := c.DropInboundReplication(dead, p, true); err != nil {
		t.Fatal(err)
	}
	puts("above", 128)
	if !waitUntil(t, 10*time.Second, func() bool {
		for _, dc := range []int{0, 1} {
			if r, err := c.ReadAt(dc, key); err != nil || string(r.Value) != "above-127" {
				return false
			}
		}
		return true
	}) {
		t.Fatal("the batch past the hole never reached the survivors")
	}

	if err := c.ForceRemoveDC(dead, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 10*time.Second, func() bool {
		for _, dc := range []int{0, 1} {
			if r, err := c.ReadAt(dc, key); err != nil || r.UpdateTime != attested.UpdateTime {
				return false
			}
		}
		return true
	}) {
		t.Fatal("the survivors never fell back to the attested head")
	}

	np, err := c.SplitPartition(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.PartitionOf(key) != np {
		t.Fatalf("key %q routes to p%d after the split, want the new owner p%d", key, c.PartitionOf(key), np)
	}
	for _, dc := range []int{0, 1} {
		r, err := c.ReadAt(dc, key)
		if err != nil {
			t.Fatal(err)
		}
		if r.UpdateTime != attested.UpdateTime {
			t.Errorf("dc%d: new owner p%d reads %q at %d, want the attested head %q at %d (evicted suffix copied back)",
				dc, np, r.Value, r.UpdateTime, attested.Value, attested.UpdateTime)
		}
	}
}
