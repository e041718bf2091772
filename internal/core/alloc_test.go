package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/racedetect"
	"repro/internal/repl"
	"repro/internal/vclock"
)

func skipUnderRace(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// The structural performance guards of the server's hot path: allocation
// counts do not depend on the host's speed, so they are asserted in tier-1
// (make allocs) where wall-clock ratios are not.

// TestGetAllocs: an optimistic GET is a vector check plus a chain-head read
// and allocates nothing.
func TestGetAllocs(t *testing.T) {
	skipUnderRace(t)
	r := newRig(t, Config{})
	if _, err := r.srv.Put("k", []byte("value"), vclock.New(3), Optimistic); err != nil {
		t.Fatal(err)
	}
	rdv := vclock.New(3)
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := r.srv.Get("k", rdv, Optimistic); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Server.Get allocates %v times per call, want 0", n)
	}
}

// TestPutAllocs: a PUT on the in-memory engine allocates the version it
// stores — struct, dependency vector, key and value in one object
// (item.New) — and nothing else: key, value and dv are the caller's,
// borrowed and copied into it. The deployment's Δ = 1 ms batches
// replication, so the flush — like chain growth — is amortized over the
// window's PUTs to less than one each. (Two while the vector was an object of
// its own.)
func TestPutAllocs(t *testing.T) {
	skipUnderRace(t)
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Millisecond}})
	value, dv := []byte("value"), vclock.New(3)
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := r.srv.Put("k", value, dv, Optimistic); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("Server.Put allocates %v times per call, want at most 1 (the version)", n)
	}
}

// TestWaitOnBlockedAllocs: parking a request and waking it recycles the
// waiter and its channel, so after warm-up a blocked GET, PUT or slice
// allocates nothing for having blocked. (Two per block before: the waiter
// and the channel that was closed to release it.)
func TestWaitOnBlockedAllocs(t *testing.T) {
	skipUnderRace(t)
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}})
	need := vclock.New(3)
	park, woken := make(chan struct{}), make(chan error)
	go func() {
		for range park {
			_, err := r.srv.waitVV(need, 0)
			woken <- err
		}
	}()
	defer close(park)
	ts := vclock.Timestamp(0)
	blockOnce := func() {
		ts++
		need[1] = ts
		park <- struct{}{}
		for r.srv.vvWaiters.active.Load() == 0 {
			runtime.Gosched()
		}
		(*replBackend)(r.srv).RaiseVV(1, ts)
		if err := <-woken; err != nil {
			t.Fatal(err)
		}
	}
	blockOnce() // warm-up: the pooled waiter and the wait list's capacity
	if n := testing.AllocsPerRun(1000, blockOnce); n != 0 {
		t.Fatalf("a park + wake allocates %v times, want 0", n)
	}
}
