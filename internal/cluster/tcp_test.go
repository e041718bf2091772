package cluster

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/causaltest"
	"repro/internal/keyspace"
)

// TCP-mode integration tests: the same protocol runs over real loopback TCP
// connections instead of the emulated network.

func newTCPCluster(t *testing.T, engine Engine) *Cluster {
	t.Helper()
	c, err := New(Config{
		NumDCs: 2, NumPartitions: 2, Engine: engine,
		HeartbeatInterval: time.Millisecond,
		TCP:               true,
		Seed:              77,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestTCPPutGetAcrossDCs(t *testing.T) {
	c := newTCPCluster(t, POCC)
	if c.Network() != nil {
		t.Fatal("TCP mode must not build an emulated network")
	}
	s0, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.Put("tcp-key", []byte("over-the-wire")); err != nil {
		t.Fatal(err)
	}
	s1, err := c.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, func() bool {
		v, errGet := s1.Get("tcp-key")
		return errGet == nil && string(v) == "over-the-wire"
	}) {
		t.Fatal("write never replicated over TCP")
	}
	if c.Messages() == 0 {
		t.Fatal("TCP sends must be counted")
	}
}

func TestTCPROTx(t *testing.T) {
	c := newTCPCluster(t, Cure)
	tbl := keyspace.Build(2, 2)
	c.SeedTable(tbl)
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{tbl.Key(0, 0), tbl.Key(1, 0)}
	for i, k := range keys {
		if err := s.Put(k, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.ROTx(keys)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != "a" || string(got[1]) != "b" {
		t.Fatalf("tx = %v", got)
	}
}

// TestTCPCausalityStress runs the model-based checker over the TCP
// transport: real sockets must preserve the same causal guarantees as the
// emulated FIFO links.
func TestTCPCausalityStress(t *testing.T) {
	c := newTCPCluster(t, POCC)
	tbl := keyspace.Build(2, 4)
	c.SeedTable(tbl)
	reg := causaltest.NewRegistry()

	var wg sync.WaitGroup
	for dc := 0; dc < 2; dc++ {
		for si := 0; si < 3; si++ {
			sess, err := c.NewSession(dc)
			if err != nil {
				t.Fatal(err)
			}
			cs := causaltest.NewSession(reg, sess, sessionName(dc, si))
			wg.Add(1)
			go func(dc, si int, cs *causaltest.Session) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(77, uint64(dc*10+si)))
				for op := 0; op < 120; op++ {
					key := tbl.Key(int(rng.Uint64N(2)), int(rng.Uint64N(4)))
					switch {
					case op%7 == 6:
						if _, err := cs.ROTx([]string{tbl.Key(0, 0), tbl.Key(1, 0)}); err != nil {
							t.Errorf("tx: %v", err)
							return
						}
					case op%3 == 2:
						if err := cs.Put(key, []byte{byte(dc), byte(op)}); err != nil {
							t.Errorf("put: %v", err)
							return
						}
					default:
						if _, err := cs.Get(key); err != nil {
							t.Errorf("get: %v", err)
							return
						}
					}
				}
			}(dc, si, cs)
		}
	}
	wg.Wait()
	for _, v := range reg.Violations() {
		t.Error(v)
	}
}
