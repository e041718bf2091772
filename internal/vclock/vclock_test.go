package vclock

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewIsZero(t *testing.T) {
	v := New(3)
	if v.Len() != 3 {
		t.Fatalf("Len = %d, want 3", v.Len())
	}
	for i := 0; i < 3; i++ {
		if v.Get(i) != 0 {
			t.Fatalf("entry %d = %d, want 0", i, v.Get(i))
		}
	}
}

func TestNilVectorIsZero(t *testing.T) {
	var v VC
	if v.Get(0) != 0 || v.Get(5) != 0 {
		t.Fatal("nil vector entries must read as 0")
	}
	if (VC{}).Get(0) != 0 || (VC{4, 5}).Get(2) != 0 || (VC{4, 5}).Get(1) != 5 {
		t.Fatal("entries beyond a shorter vector must read as 0")
	}
	if !v.LessEq(New(3)) {
		t.Fatal("nil vector must be <= any vector")
	}
	if v.Clone() != nil {
		t.Fatal("Clone of nil must be nil")
	}
	if v.MaxEntry() != 0 {
		t.Fatal("nil vector MaxEntry must be 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := VC{1, 2, 3}
	b := a.Clone()
	b.Set(0, 99)
	if a[0] != 1 {
		t.Fatal("Clone must not alias the original")
	}
}

func TestMaxInPlace(t *testing.T) {
	tests := []struct {
		name    string
		v, o, w VC
	}{
		{"disjoint", VC{5, 0, 3}, VC{1, 7, 3}, VC{5, 7, 3}},
		{"identity", VC{5, 6, 7}, New(3), VC{5, 6, 7}},
		{"shorter other", VC{5, 6, 7}, VC{9}, VC{9, 6, 7}},
		{"nil other", VC{5, 6, 7}, nil, VC{5, 6, 7}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := tt.v.Clone()
			v.MaxInPlace(tt.o)
			if !v.Equal(tt.w) {
				t.Fatalf("MaxInPlace(%v, %v) = %v, want %v", tt.v, tt.o, v, tt.w)
			}
		})
	}
}

func TestMinInPlace(t *testing.T) {
	v := VC{5, 2, 9}
	v.MinInPlace(VC{3, 4, 9})
	if !v.Equal(VC{3, 2, 9}) {
		t.Fatalf("MinInPlace = %v", v)
	}
}

func TestLessEq(t *testing.T) {
	tests := []struct {
		name string
		a, b VC
		want bool
	}{
		{"equal", VC{1, 2}, VC{1, 2}, true},
		{"strictly less", VC{1, 2}, VC{2, 3}, true},
		{"incomparable", VC{1, 5}, VC{2, 3}, false},
		{"greater", VC{3, 3}, VC{2, 3}, false},
		{"zero below all", New(2), VC{0, 0}, true},
		{"longer a against implicit zeros", VC{0, 0, 1}, VC{5, 5}, false},
		{"longer a all zero", VC{0, 0, 0}, VC{5, 5}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.LessEq(tt.b); got != tt.want {
				t.Fatalf("%v.LessEq(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestMaxEntry(t *testing.T) {
	v := VC{4, 9, 1}
	if v.MaxEntry() != 9 {
		t.Fatalf("MaxEntry = %d", v.MaxEntry())
	}
}

func TestAggregates(t *testing.T) {
	vs := []VC{{5, 1}, {3, 4}, {4, 2}}
	if got := AggregateMin(vs); !got.Equal(VC{3, 1}) {
		t.Fatalf("AggregateMin = %v", got)
	}
}

func TestAggregateMinEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AggregateMin(empty) must panic")
		}
	}()
	AggregateMin(nil)
}

func TestValidate(t *testing.T) {
	if err := (VC{1, 2}).Validate(2); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := (VC{1, 2}).Validate(3); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestString(t *testing.T) {
	if got := (VC{1, 22, 3}).String(); got != "[1 22 3]" {
		t.Fatalf("String = %q", got)
	}
}

// randVC generates a bounded random vector for property tests.
func randVC(r *rand.Rand, n int) VC {
	v := New(n)
	for i := range v {
		v[i] = Timestamp(r.Uint64N(1 << 20))
	}
	return v
}

func TestQuickLatticeLaws(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	f := func(seed uint64) bool {
		rr := rand.New(rand.NewPCG(seed, 7))
		n := 1 + int(rr.Uint64N(8))
		a, b, c := randVC(rr, n), randVC(rr, n), randVC(rr, n)

		// Commutativity.
		if !Max(a, b).Equal(Max(b, a)) || !Min(a, b).Equal(Min(b, a)) {
			return false
		}
		// Associativity.
		if !Max(Max(a, b), c).Equal(Max(a, Max(b, c))) {
			return false
		}
		if !Min(Min(a, b), c).Equal(Min(a, Min(b, c))) {
			return false
		}
		// Idempotence.
		if !Max(a, a).Equal(a) || !Min(a, a).Equal(a) {
			return false
		}
		// Absorption: a ∨ (a ∧ b) == a.
		if !Max(a, Min(a, b)).Equal(a) {
			return false
		}
		// Order embedding: a <= Max(a,b), Min(a,b) <= a.
		if !a.LessEq(Max(a, b)) || !Min(a, b).LessEq(a) {
			return false
		}
		// LessEq is a partial order: antisymmetry on (a<=b && b<=a) => equal.
		if a.LessEq(b) && b.LessEq(a) && !a.Equal(b) {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: nil}
	_ = r
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMaxIsLUB(t *testing.T) {
	f := func(seed uint64) bool {
		rr := rand.New(rand.NewPCG(seed, 11))
		n := 1 + int(rr.Uint64N(6))
		a, b := randVC(rr, n), randVC(rr, n)
		m := Max(a, b)
		// m is an upper bound.
		if !a.LessEq(m) || !b.LessEq(m) {
			return false
		}
		// m is the LEAST upper bound: every entry equals one of the inputs.
		for i := range m {
			if m[i] != a[i] && m[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualLengthMismatch(t *testing.T) {
	if (VC{1, 2}).Equal(VC{1, 2, 0}) {
		t.Fatal("different lengths must not be Equal")
	}
}

func TestMixedLengthInPlaceOps(t *testing.T) {
	// Vectors of different widths meet when a deployment grows at runtime:
	// the in-place ops must stay total. Max ignores entries the shorter
	// destination cannot track; Min treats entries the argument lacks as
	// zero (the conservative choice for aggregate minima).
	v := VC{5, 5}
	v.MaxInPlace(VC{1, 9, 7})
	if !v.Equal(VC{5, 9}) {
		t.Fatalf("MaxInPlace with a longer argument = %v, want [5 9]", v)
	}
	v = VC{5, 5, 5}
	v.MaxInPlace(VC{9})
	if !v.Equal(VC{9, 5, 5}) {
		t.Fatalf("MaxInPlace with a shorter argument = %v, want [9 5 5]", v)
	}
	v = VC{5, 5, 5}
	v.MinInPlace(VC{3, 9})
	if !v.Equal(VC{3, 5, 0}) {
		t.Fatalf("MinInPlace with a shorter argument = %v, want [3 5 0]", v)
	}
}

func TestGrowTo(t *testing.T) {
	v := VC{1, 2}
	grown := v.GrowTo(4)
	if !grown.Equal(VC{1, 2, 0, 0}) {
		t.Fatalf("GrowTo(4) = %v", grown)
	}
	if same := v.GrowTo(2); &same[0] != &v[0] {
		t.Fatal("GrowTo must not reallocate an already-wide vector")
	}
	if same := v.GrowTo(0); &same[0] != &v[0] {
		t.Fatal("GrowTo(0) must return the vector unchanged")
	}
}
