package storage

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/item"
	"repro/internal/vclock"
)

// model is the reference a Mem is checked against: every key's chain as a
// plain slice, newest first by the LWW rule.
type model map[string][]*item.Version

func (m model) insert(v *item.Version) {
	chain := m[v.Key]
	i := 0
	for ; i < len(chain); i++ {
		if v.Same(chain[i]) {
			return
		}
		if v.Newer(chain[i]) {
			break
		}
	}
	m[v.Key] = slices.Insert(chain, i, v)
}

func (m model) collectGarbage(gv vclock.VC) int {
	removed := 0
	for key, chain := range m {
		if i := slices.IndexFunc(chain, func(v *item.Version) bool { return v.Deps.LessEq(gv) }); i >= 0 {
			removed += len(chain) - i - 1
			m[key] = chain[:i+1]
		}
	}
	return removed
}

func (m model) dropAbove(src int, after vclock.Timestamp) int {
	removed := 0
	for key, chain := range m {
		kept := slices.DeleteFunc(slices.Clone(chain), func(v *item.Version) bool {
			return v.SrcReplica == src && v.UpdateTime > after
		})
		removed += len(chain) - len(kept)
		if len(kept) == 0 {
			delete(m, key)
		} else {
			m[key] = kept
		}
	}
	return removed
}

// visibleForTest is the predicate ReadVisible is checked with: it hides
// every third timestamp, so results land anywhere in a chain.
func visibleForTest(v *item.Version) bool { return v.UpdateTime%3 != 0 }

// checkKey compares s's Head and ReadVisible for key with the model's chain.
func checkKey(t testing.TB, s *Mem, m model, key string) {
	t.Helper()
	chain := m[key]
	var want ReadResult
	want.ChainLen = len(chain)
	for i, v := range chain {
		if !visibleForTest(v) {
			want.Invisible++
		} else if want.V == nil {
			want.V, want.Fresher = v, i
		}
	}
	var head *item.Version
	if len(chain) > 0 {
		head = chain[0]
	}
	if got := s.Head(key); got != head {
		t.Fatalf("Head(%q) = %v, want %v", key, got, head)
	}
	if got := s.ReadVisible(key, nil); got != (ReadResult{V: head, ChainLen: len(chain)}) {
		t.Fatalf("ReadVisible(%q, nil) = %+v, want the head %v of %d", key, got, head, len(chain))
	}
	if got := s.ReadVisible(key, visibleForTest); got != want {
		t.Fatalf("ReadVisible(%q) = %+v, want %+v", key, got, want)
	}
}

// checkAll compares every key of keys and the whole-store walks with the
// model.
func checkAll(t testing.TB, s *Mem, m model, keys []string) {
	t.Helper()
	for _, key := range keys {
		checkKey(t, s, m, key)
	}
	want := StoreStats{Keys: len(m)}
	for _, chain := range m {
		want.Versions += len(chain)
	}
	if got := s.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
	heads := 0
	s.ForEachHead(func(key string, head *item.Version) {
		heads++
		if chain := m[key]; len(chain) == 0 || chain[0] != head || head.Key != key {
			t.Fatalf("ForEachHead gave %q → %v, want %v", key, head, chain)
		}
	})
	if heads != len(m) {
		t.Fatalf("ForEachHead visited %d keys, want %d", heads, len(m))
	}
	var walked []*item.Version
	s.ForEachVersion(func(v *item.Version) { walked = append(walked, v) })
	for len(walked) > 0 {
		chain := m[walked[0].Key]
		if len(walked) < len(chain) || !slices.Equal(walked[:len(chain)], chain) {
			t.Fatalf("ForEachVersion does not walk %q's chain %v in LWW order", walked[0].Key, chain)
		}
		walked = walked[len(chain):]
	}
}

// TestProbeTableAgainstModel drives a Mem and the model through the same
// seeded mix of inserts (new keys, newer, older and duplicate versions),
// garbage collections and DropAbove calls that empty keys. 4 096 keys fill
// each shard's table to over a hundred slots, so probe runs wrap past its
// end and removals shift keys back across it.
func TestProbeTableAgainstModel(t *testing.T) {
	const nkeys = 4096
	rng := rand.New(rand.NewPCG(42, 31))
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
	}
	s, m := New(), model{}
	var clock vclock.Timestamp = 1000
	lagged := func(ts vclock.Timestamp) vclock.Timestamp { return ts - min(ts, vclock.Timestamp(rng.IntN(400))) }
	for round := range 30 {
		for range 1000 {
			key := keys[rng.IntN(nkeys)]
			chain := m[key]
			var nv *item.Version
			switch r := rng.IntN(8); {
			case len(chain) > 0 && r == 0: // a duplicate, as a replayed delivery
				d := chain[rng.IntN(len(chain))]
				nv = v(key, d.UpdateTime, d.SrcReplica, d.Deps...)
			case len(chain) > 0 && r <= 2: // an older version, arriving late
				ts := vclock.Timestamp(rng.Uint64N(uint64(chain[0].UpdateTime) + 1))
				nv = v(key, ts, rng.IntN(3), lagged(ts))
			default: // the freshest version, or a new key's first
				clock += vclock.Timestamp(1 + rng.IntN(3))
				nv = v(key, clock, rng.IntN(3), lagged(clock))
			}
			s.Insert(nv)
			m.insert(nv)
			checkKey(t, s, m, key)
		}
		checkAll(t, s, m, keys)
		if round%3 == 2 {
			gv := vclock.VC{lagged(clock)}
			if got, want := s.CollectGarbage(gv), m.collectGarbage(gv); got != want {
				t.Fatalf("round %d: CollectGarbage(%v) removed %d versions, want %d", round, gv, got, want)
			}
		} else {
			src, after := rng.IntN(3), clock-vclock.Timestamp(rng.IntN(3000))
			if got, want := s.DropAbove(src, after), m.dropAbove(src, after); got != want {
				t.Fatalf("round %d: DropAbove(%d, %d) removed %d versions, want %d", round, src, after, got, want)
			}
		}
		checkAll(t, s, m, keys)
	}
}

// FuzzMemOps decodes an operation sequence from bytes and checks a Mem
// against the model after every operation. Each operation is three bytes:
// a kind, a key (one of 256, about four to a shard, so probe runs of a small
// table wrap too) and an argument.
func FuzzMemOps(f *testing.F) {
	f.Add([]byte{0, 1, 10, 0, 1, 12, 1, 1, 3, 2, 0, 0, 3, 1, 9})
	f.Add([]byte{0, 7, 40, 0, 8, 41, 0, 9, 42, 0, 7, 43, 0, 7, 44, 0, 7, 45, 3, 0, 44, 2, 0, 0, 2, 1, 0})
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, m := New(), model{}
		for ; len(data) >= 3; data = data[3:] {
			kind, key, arg := data[0], keys[data[1]], vclock.Timestamp(data[2])
			switch kind % 4 {
			case 0, 1: // insert: timestamp arg, source replica from the kind
				nv := v(key, arg, int(kind/4%3), arg/2)
				s.Insert(nv)
				m.insert(nv)
			case 2: // DropAbove(source from the kind, arg)
				src := int(kind / 4 % 3)
				if got, want := s.DropAbove(src, arg), m.dropAbove(src, arg); got != want {
					t.Fatalf("DropAbove(%d, %d) removed %d versions, want %d", src, arg, got, want)
				}
			case 3: // CollectGarbage(arg)
				gv := vclock.VC{arg}
				if got, want := s.CollectGarbage(gv), m.collectGarbage(gv); got != want {
					t.Fatalf("CollectGarbage(%v) removed %d versions, want %d", gv, got, want)
				}
			}
			checkKey(t, s, m, key)
		}
		checkAll(t, s, m, keys)
	})
}
