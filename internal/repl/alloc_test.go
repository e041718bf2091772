package repl

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/racedetect"
)

// TestReplicationFlushAllocs: after warm-up, a flush and an idle heartbeat
// to two sibling DCs allocate nothing — the batch, its version list and the
// heartbeat are drawn from pools and come back when the second link releases
// them. Each run publishes one write and waits out a Δ tick that flushes it
// and one that finds the buffer idle and broadcasts a heartbeat.
func TestReplicationFlushAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool drops at random)")
	}
	nw := netemu.New(netemu.Config{})
	defer nw.Close()
	var batches, beats atomic.Int64
	for dc := 1; dc <= 2; dc++ {
		nw.Register(netemu.NodeID{DC: dc}, func(_ netemu.NodeID, m any) {
			switch m.(type) {
			case *msg.ReplicateBatch:
				batches.Add(1)
			case *msg.Heartbeat:
				beats.Add(1)
			}
		})
	}
	be := newFakeBackend(3)
	m, err := NewManager(Config{
		ID: netemu.NodeID{DC: 0}, NumDCs: 3, Clock: be.clk,
		Endpoint:          nw.Register(netemu.NodeID{DC: 0}, nil),
		HeartbeatInterval: 200 * time.Microsecond,
	}, be, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(false)
	v := item.New(3)
	tick := func() {
		b, h := batches.Load(), beats.Load()
		if _, err := m.Publish(v); err != nil {
			t.Fatal(err)
		}
		for batches.Load() < b+2 || beats.Load() < h+2 {
			runtime.Gosched()
		}
	}
	for i := 0; i < 100; i++ {
		tick()
	}
	if avg := testing.AllocsPerRun(200, tick); avg != 0 {
		t.Fatalf("a flush plus an idle heartbeat to two siblings allocates %v times, want 0", avg)
	}
}
