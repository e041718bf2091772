package main

import (
	"errors"
	"testing"
	"time"
)

// The convergence gate must fail while a DC is cut off from a write, and
// pass once the write has arrived.
func TestConvergenceGateSeesADivergedReplica(t *testing.T) {
	d, err := deploy(workloads[0], 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if err := d.checkConverged(nil, time.Second); err != nil {
		t.Fatalf("freshly seeded deployment: %v", err)
	}
	d.cl.Network().PartitionDCs(0, numDCs-1, true)
	key := d.table.Key(0, 0)
	if err := d.sessions[0].Put(key, []byte("diverged")); err != nil {
		t.Fatal(err)
	}
	if err := d.checkConverged(nil, 50*time.Millisecond); !errors.Is(err, errNotConverged) {
		t.Fatalf("DC %d cut off from the write: gate returned %v, want errNotConverged", numDCs-1, err)
	}
	d.cl.Network().PartitionDCs(0, numDCs-1, false)
	if err := d.checkConverged(nil, convergeTimeout); err != nil {
		t.Fatalf("after healing: %v", err)
	}
}
