package main

import (
	"bytes"
	"fmt"
	"time"
)

// convergeTimeout bounds the quiesce: once the clients have stopped, every
// replica must agree on every key within it.
const convergeTimeout = 5 * time.Second

// checkConverged requires every table key, own key and probe key to read
// identically in all DCs within timeout of the load stopping.
func (d *deployment) checkConverged(probeKeys []string, timeout time.Duration) error {
	var pending []string
	for p := 0; p < numPartitions; p++ {
		pending = append(pending, d.table.AllKeys(p)...)
	}
	if d.spec.ownEvery > 0 {
		for i := 0; i < numClients; i++ {
			pending = append(pending, ownKey(i))
		}
	}
	pending = append(pending, probeKeys...)
	deadline := time.Now().Add(timeout)
	for {
		var still []string
		for _, k := range pending {
			ok, err := d.converged(k)
			if err != nil {
				return fmt.Errorf("convergence read %s: %w", k, err)
			}
			if !ok {
				still = append(still, k)
			}
		}
		if len(still) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %d keys differ between DCs after %v (first %s)",
				errNotConverged, len(still), timeout, still[0])
		}
		pending = still
		time.Sleep(10 * time.Millisecond)
	}
}

// checkReopen closes nothing itself: the caller has closed the deployment.
// It re-opens the same data directory and requires every client's last
// acknowledged own-key PUT to be readable at the client's DC.
func checkReopen(spec *workloadSpec, seed uint64, dataDir string, lastAcked [][]byte) error {
	store, err := openStore(seed, dataDir)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer store.Close()
	for i, want := range lastAcked {
		sess, err := store.Session(clientDC(spec, i))
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		got, err := sess.Get(ownKey(i))
		if err != nil {
			return fmt.Errorf("reopen: GET %s: %w", ownKey(i), err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("reopen: %s reads %x, last acked PUT was %x", ownKey(i), got, want)
		}
	}
	return nil
}
