package causaltest

import (
	"strings"
	"testing"
)

func TestVersionIDOrder(t *testing.T) {
	a := VersionID{UpdateTime: 10, SrcReplica: 1}
	b := VersionID{UpdateTime: 5, SrcReplica: 0}
	if !a.NewerOrEqual(b) || b.NewerOrEqual(a) {
		t.Fatal("higher timestamp must win")
	}
	tieLow := VersionID{UpdateTime: 10, SrcReplica: 0}
	if !tieLow.NewerOrEqual(a) || a.NewerOrEqual(tieLow) {
		t.Fatal("ties must go to the lowest replica")
	}
	if !a.NewerOrEqual(a) {
		t.Fatal("order must be reflexive")
	}
}

func TestMaxID(t *testing.T) {
	a := VersionID{UpdateTime: 10, SrcReplica: 1}
	b := VersionID{UpdateTime: 12, SrcReplica: 2}
	if maxID(a, b) != b || maxID(b, a) != b {
		t.Fatal("maxID must pick the LWW winner")
	}
	if maxID(VersionID{}, a) != a || maxID(a, VersionID{}) != a {
		t.Fatal("zero id is the identity")
	}
}

func TestCheckReadFlagsRegression(t *testing.T) {
	reg := NewRegistry()
	c := NewSession(reg, nil, "c1")
	// The client causally depends on version 10 of "x".
	c.deps["x"] = VersionID{UpdateTime: 10, SrcReplica: 0}
	// A read returning version 5 is a causality violation.
	c.checkRead("GET", "x", VersionID{UpdateTime: 5, SrcReplica: 0})
	if v := reg.Violations(); len(v) != 1 || !strings.Contains(v[0], "causally older") {
		t.Fatalf("violations = %v", v)
	}
}

func TestCheckReadFlagsMissing(t *testing.T) {
	reg := NewRegistry()
	c := NewSession(reg, nil, "c1")
	c.deps["x"] = VersionID{UpdateTime: 10, SrcReplica: 0}
	c.checkRead("GET", "x", VersionID{})
	if v := reg.Violations(); len(v) != 1 || !strings.Contains(v[0], "no version") {
		t.Fatalf("violations = %v", v)
	}
}

func TestCheckReadAcceptsNewer(t *testing.T) {
	reg := NewRegistry()
	c := NewSession(reg, nil, "c1")
	c.deps["x"] = VersionID{UpdateTime: 10, SrcReplica: 0}
	c.checkRead("GET", "x", VersionID{UpdateTime: 10, SrcReplica: 0})
	c.checkRead("GET", "x", VersionID{UpdateTime: 99, SrcReplica: 2})
	if v := reg.Violations(); len(v) != 0 {
		t.Fatalf("violations = %v", v)
	}
}

func TestAbsorbMergesTransitiveContext(t *testing.T) {
	reg := NewRegistry()
	writer := NewSession(reg, nil, "writer")
	// The writer depends on y@7 when it writes x@9.
	writer.deps["y"] = VersionID{UpdateTime: 7, SrcReplica: 1}
	xid := VersionID{UpdateTime: 9, SrcReplica: 0}
	reg.record("x", xid, writer.deps)

	reader := NewSession(reg, nil, "reader")
	reader.absorb("x", xid)
	if reader.deps["x"] != xid {
		t.Fatal("direct dependency not absorbed")
	}
	if reader.deps["y"] != (VersionID{UpdateTime: 7, SrcReplica: 1}) {
		t.Fatal("transitive dependency not absorbed")
	}
	// Reading an older y later must now be flagged.
	reader.checkRead("GET", "y", VersionID{UpdateTime: 3, SrcReplica: 1})
	if len(reg.Violations()) != 1 {
		t.Fatal("transitive regression not flagged")
	}
}

func TestViolationCap(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < 200; i++ {
		reg.violate("v%d", i)
	}
	if got := len(reg.Violations()); got != 50 {
		t.Fatalf("violations capped at %d, want 50", got)
	}
}
