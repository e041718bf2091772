package harness

import (
	"context"
	"testing"
)

// TestVisibilityPoint smoke-tests the shared visibility probe at CI scale:
// stats must be internally consistent and the delta wire encoding must beat
// the pre-HLC absolute encoding on the probe's own update stream.
func TestVisibilityPoint(t *testing.T) {
	sc := CIScale()
	st, err := VisibilityPoint(context.Background(), sc, VisibilityOpts{Samples: 40})
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples != 40 {
		t.Fatalf("got %d samples, want 40", st.Samples)
	}
	if st.VisP50 <= 0 || st.VisP99 < st.VisP50 {
		t.Fatalf("arrival visibility out of order: p50 %v p99 %v", st.VisP50, st.VisP99)
	}
	// Stable visibility waits on everything arrival visibility waits on,
	// plus stabilization; the sorted coupling makes this hold per-quantile.
	if st.StableP50 < st.VisP50 || st.StableP99 < st.VisP99 {
		t.Fatalf("stable visibility below arrival visibility: vis %v/%v stable %v/%v",
			st.VisP50, st.VisP99, st.StableP50, st.StableP99)
	}
	if st.DeltaBytesPerVersion <= 0 || st.DeltaBytesPerVersion >= st.AbsBytesPerVersion {
		t.Fatalf("delta encoding (%.1f B/version) does not beat absolute (%.1f B/version)",
			st.DeltaBytesPerVersion, st.AbsBytesPerVersion)
	}
	t.Logf("vis p50/p99 %v/%v, stable p50/p99 %v/%v, gss lag mean/max %v/%v, B/version delta/abs %.1f/%.1f",
		st.VisP50, st.VisP99, st.StableP50, st.StableP99,
		st.GSSLagMean, st.GSSLagMax, st.DeltaBytesPerVersion, st.AbsBytesPerVersion)
}
