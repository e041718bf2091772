package storage

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/item"
	"repro/internal/vclock"
)

func v(key string, ut vclock.Timestamp, sr int, deps ...vclock.Timestamp) *item.Version {
	return &item.Version{Key: key, UpdateTime: ut, SrcReplica: sr, Deps: vclock.VC(deps)}
}

func TestInsertAndHead(t *testing.T) {
	s := New()
	if s.Head("x") != nil {
		t.Fatal("empty store must have no head")
	}
	s.Insert(v("x", 5, 0))
	s.Insert(v("x", 3, 1))
	s.Insert(v("x", 9, 2))
	head := s.Head("x")
	if head == nil || head.UpdateTime != 9 {
		t.Fatalf("head = %+v, want ut=9", head)
	}
}

func TestInsertOutOfOrderKeepsLWWOrder(t *testing.T) {
	s := New()
	times := []vclock.Timestamp{7, 2, 9, 4, 1, 8}
	for _, ut := range times {
		s.Insert(v("k", ut, 0))
	}
	res := s.ReadVisible("k", func(*item.Version) bool { return true })
	if res.ChainLen != len(times) {
		t.Fatalf("ChainLen = %d", res.ChainLen)
	}
	if res.V.UpdateTime != 9 {
		t.Fatalf("freshest = %d", res.V.UpdateTime)
	}
}

func TestInsertTieBreak(t *testing.T) {
	s := New()
	s.Insert(v("k", 5, 2))
	s.Insert(v("k", 5, 0)) // same ut, lower replica: LWW winner
	if head := s.Head("k"); head.SrcReplica != 0 {
		t.Fatalf("head replica = %d, want 0", head.SrcReplica)
	}
}

func TestInsertIdempotent(t *testing.T) {
	s := New()
	a := v("k", 5, 1)
	s.Insert(a)
	s.Insert(v("k", 5, 1)) // same version replayed
	if got := s.Versions(); got != 1 {
		t.Fatalf("Versions = %d after duplicate insert", got)
	}
}

func TestReadVisibleNilPredicateIsHead(t *testing.T) {
	s := New()
	s.Insert(v("k", 5, 0))
	s.Insert(v("k", 7, 1))
	res := s.ReadVisible("k", nil)
	if res.V.UpdateTime != 7 || res.Fresher != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestReadVisiblePredicate(t *testing.T) {
	s := New()
	s.Insert(v("k", 3, 0))
	s.Insert(v("k", 5, 1))
	s.Insert(v("k", 9, 2))
	// Only versions with ut <= 5 are "stable".
	res := s.ReadVisible("k", func(ver *item.Version) bool { return ver.UpdateTime <= 5 })
	if res.V.UpdateTime != 5 {
		t.Fatalf("returned ut = %d, want 5", res.V.UpdateTime)
	}
	if res.Fresher != 1 {
		t.Fatalf("Fresher = %d, want 1 (ut=9 hidden)", res.Fresher)
	}
	if res.Invisible != 1 {
		t.Fatalf("Invisible = %d, want 1", res.Invisible)
	}
	if res.ChainLen != 3 {
		t.Fatalf("ChainLen = %d", res.ChainLen)
	}
}

func TestReadVisibleNothingVisible(t *testing.T) {
	s := New()
	s.Insert(v("k", 9, 2))
	res := s.ReadVisible("k", func(*item.Version) bool { return false })
	if res.V != nil || res.Invisible != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestReadWithin(t *testing.T) {
	s := New()
	s.Insert(v("k", 5, 0, 0, 0))   // deps [0 0]
	s.Insert(v("k", 9, 1, 8, 0))   // deps [8 0]
	s.Insert(v("k", 12, 0, 8, 11)) // deps [8 11]
	tv := vclock.VC{8, 5}
	res := s.ReadWithin("k", tv)
	if res.V.UpdateTime != 9 {
		t.Fatalf("ReadWithin returned ut=%d, want 9", res.V.UpdateTime)
	}
}

// TestReadWithinAllowsFresherThanSnapshot checks the OCC optimism: a version
// with update time beyond the snapshot is still visible as long as its
// dependencies are covered (Algorithm 2, line 43 checks DV only).
func TestReadWithinAllowsFresherThanSnapshot(t *testing.T) {
	s := New()
	s.Insert(v("k", 100, 1, 2, 0)) // very fresh but depends only on [2 0]
	res := s.ReadWithin("k", vclock.VC{5, 5})
	if res.V == nil || res.V.UpdateTime != 100 {
		t.Fatalf("version with covered deps must be visible, got %+v", res)
	}
}

func TestMissingKey(t *testing.T) {
	s := New()
	res := s.ReadVisible("nope", nil)
	if res.V != nil || res.ChainLen != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestCollectGarbage(t *testing.T) {
	s := New()
	s.Insert(v("k", 2, 0, 0, 0))
	s.Insert(v("k", 5, 0, 3, 0))
	s.Insert(v("k", 9, 0, 7, 7))
	// GV covers deps of the ut=5 version but not the ut=9 one.
	removed := s.CollectGarbage(vclock.VC{4, 4})
	if removed != 1 {
		t.Fatalf("removed = %d, want 1 (only ut=2 pruned)", removed)
	}
	res := s.ReadVisible("k", func(*item.Version) bool { return true })
	if res.ChainLen != 2 {
		t.Fatalf("ChainLen = %d after GC", res.ChainLen)
	}
	// The anchor version (ut=5) must survive: it is the oldest version a
	// transaction with snapshot >= GV may still need.
	found := false
	if got := s.ReadWithin("k", vclock.VC{4, 4}); got.V != nil && got.V.UpdateTime == 5 {
		found = true
	}
	if !found {
		t.Fatal("GC must keep the newest version with deps <= GV")
	}
}

func TestCollectGarbageNoAnchorKeepsAll(t *testing.T) {
	s := New()
	s.Insert(v("k", 5, 0, 9, 9))
	s.Insert(v("k", 8, 0, 9, 9))
	if removed := s.CollectGarbage(vclock.VC{0, 0}); removed != 0 {
		t.Fatalf("removed = %d, want 0 when nothing is anchored", removed)
	}
}

func TestCollectGarbageHeadAnchored(t *testing.T) {
	s := New()
	s.Insert(v("k", 2, 0, 0, 0))
	s.Insert(v("k", 5, 0, 1, 1))
	removed := s.CollectGarbage(vclock.VC{10, 10})
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	if s.Head("k").UpdateTime != 5 {
		t.Fatal("head must survive GC")
	}
}

func TestKeysAndVersions(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i%3)
		s.Insert(v(key, vclock.Timestamp(i+1), i%2))
	}
	if s.Keys() != 3 {
		t.Fatalf("Keys = %d", s.Keys())
	}
	if s.Versions() != 10 {
		t.Fatalf("Versions = %d", s.Versions())
	}
}

func TestForEachVersion(t *testing.T) {
	s := New()
	s.Insert(v("a", 1, 0))
	s.Insert(v("a", 5, 0))
	s.Insert(v("b", 3, 1))
	chains := map[string][]vclock.Timestamp{}
	s.ForEachVersion(func(v *item.Version) { chains[v.Key] = append(chains[v.Key], v.UpdateTime) })
	if len(chains) != 2 || !slices.Equal(chains["a"], []vclock.Timestamp{5, 1}) || !slices.Equal(chains["b"], []vclock.Timestamp{3}) {
		t.Fatalf("chains = %v", chains)
	}
}

func TestConcurrentInsertAndRead(t *testing.T) {
	s := New()
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("k%d", i%17)
				s.Insert(v(key, vclock.Timestamp(w*perWriter+i+1), w%3))
				_ = s.ReadVisible(key, nil)
			}
		}(w)
	}
	wg.Wait()
	if got := s.Versions(); got != writers*perWriter {
		t.Fatalf("Versions = %d, want %d", got, writers*perWriter)
	}
}

// TestQuickChainOrderInvariant inserts versions in random order and checks
// the chain is always read back in strict LWW order with the correct head.
func TestQuickChainOrderInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		s := New()
		n := 1 + int(rng.Uint64N(40))
		type vk struct {
			ut vclock.Timestamp
			sr int
		}
		inserted := map[vk]bool{}
		var best *item.Version
		for i := 0; i < n; i++ {
			ver := v("k", vclock.Timestamp(1+rng.Uint64N(50)), int(rng.Uint64N(3)))
			s.Insert(ver)
			k := vk{ver.UpdateTime, ver.SrcReplica}
			if !inserted[k] {
				inserted[k] = true
				if best == nil || ver.Newer(best) {
					best = ver
				}
			}
		}
		res := s.ReadVisible("k", func(*item.Version) bool { return true })
		if res.ChainLen != len(inserted) {
			return false
		}
		head := s.Head("k")
		return head.UpdateTime == best.UpdateTime && head.SrcReplica == best.SrcReplica
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGCRetentionInvariant: after GC with any vector, (1) the head
// survives, (2) there is still a version with deps <= GV whenever one existed
// before, and (3) no version newer than the anchor was removed.
func TestQuickGCRetentionInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		s := New()
		n := 1 + int(rng.Uint64N(20))
		hadAnchored := false
		gv := vclock.VC{vclock.Timestamp(rng.Uint64N(30)), vclock.Timestamp(rng.Uint64N(30))}
		var headBefore *item.Version
		seen := map[vclock.Timestamp]bool{} // dedup: same (ut, sr=0) is dropped by Insert
		for i := 0; i < n; i++ {
			ver := v("k", vclock.Timestamp(1+rng.Uint64N(60)), 0,
				vclock.Timestamp(rng.Uint64N(30)), vclock.Timestamp(rng.Uint64N(30)))
			s.Insert(ver)
			if seen[ver.UpdateTime] {
				continue
			}
			seen[ver.UpdateTime] = true
			if ver.Deps.LessEq(gv) {
				hadAnchored = true
			}
			if headBefore == nil || ver.Newer(headBefore) {
				headBefore = ver
			}
		}
		s.CollectGarbage(gv)
		head := s.Head("k")
		if head == nil || !head.Same(headBefore) {
			return false
		}
		if hadAnchored {
			if res := s.ReadWithin("k", gv); res.V == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
