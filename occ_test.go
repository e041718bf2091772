package occ_test

import (
	"strings"
	"testing"
	"time"

	occ "repro"
)

func open(t *testing.T, cfg occ.Config) *occ.Store {
	t.Helper()
	if cfg.Latency == nil {
		cfg.Latency = occ.UniformProfile(50*time.Microsecond, time.Millisecond)
	}
	s, err := occ.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

func TestOpenValidation(t *testing.T) {
	if _, err := occ.Open(occ.Config{DataCenters: 2, Partitions: 2}); err == nil {
		t.Fatal("missing engine must be rejected")
	}
	if _, err := occ.Open(occ.Config{DataCenters: 0, Partitions: 2, Engine: occ.POCC}); err == nil {
		t.Fatal("zero DCs must be rejected")
	}
	// A negative interval would switch its loop off without a word.
	for field, cfg := range map[string]occ.Config{
		"HeartbeatInterval":     {Engine: occ.POCC, HeartbeatInterval: -time.Millisecond},
		"StabilizationInterval": {Engine: occ.CureStar, StabilizationInterval: -time.Millisecond},
		"BlockTimeout":          {Engine: occ.HAPOCC, BlockTimeout: -time.Millisecond},
	} {
		cfg.DataCenters, cfg.Partitions = 2, 2
		if s, err := occ.Open(cfg); err == nil {
			s.Close()
			t.Errorf("negative %s must be rejected", field)
		} else if !strings.Contains(err.Error(), field) {
			t.Errorf("negative %s: error %q does not name the field", field, err)
		}
	}
}

func TestEngineNames(t *testing.T) {
	if occ.POCC.String() != "POCC" || occ.CureStar.String() != "Cure*" || occ.HAPOCC.String() != "HA-POCC" {
		t.Fatal("engine names changed")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	for _, engine := range []occ.Engine{occ.POCC, occ.CureStar, occ.HAPOCC} {
		t.Run(engine.String(), func(t *testing.T) {
			s := open(t, occ.Config{DataCenters: 2, Partitions: 2, Engine: engine, Seed: 1})
			sess, err := s.Session(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Put("greeting", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			got, err := sess.Get("greeting")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "hello" {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestCrossDCVisibility(t *testing.T) {
	s := open(t, occ.Config{DataCenters: 3, Partitions: 2, Engine: occ.POCC, Seed: 2})
	writer, err := s.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for dc := 1; dc < 3; dc++ {
		reader, err := s.Session(dc)
		if err != nil {
			t.Fatal(err)
		}
		if !waitFor(t, 2*time.Second, func() bool {
			v, errGet := reader.Get("k")
			return errGet == nil && string(v) == "v"
		}) {
			t.Fatalf("dc%d never saw the write", dc)
		}
	}
}

func TestROTxSnapshot(t *testing.T) {
	s := open(t, occ.Config{DataCenters: 2, Partitions: 4, Engine: occ.POCC, Seed: 3})
	sess, err := s.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c", "d"}
	for i, k := range keys {
		if err := sess.Put(k, []byte{byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := sess.ROTx(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if string(vals[i]) != string([]byte{byte('0' + i)}) {
			t.Fatalf("tx[%s] = %q", k, vals[i])
		}
	}
}

func TestSeedAndMissingKeys(t *testing.T) {
	s := open(t, occ.Config{DataCenters: 2, Partitions: 2, Engine: occ.POCC, Seed: 4})
	s.Seed("warm", []byte("data"))
	sess, err := s.Session(1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Get("warm")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "data" {
		t.Fatalf("seeded value = %q", got)
	}
	missing, err := sess.Get("cold")
	if err != nil {
		t.Fatal(err)
	}
	if missing != nil {
		t.Fatalf("missing key returned %q", missing)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := open(t, occ.Config{DataCenters: 2, Partitions: 2, Engine: occ.POCC, Seed: 5})
	sess, err := s.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := sess.Put("k", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Get("k"); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Operations < 20 {
		t.Fatalf("stats = %+v", st)
	}
	// Replication is batched: updates leave on the next Δ flush, so give
	// the transport a moment before asserting the message counter moved.
	deadline := time.Now().Add(time.Second)
	for s.Messages() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Messages() == 0 {
		t.Fatal("replication messages must be counted")
	}
}

func TestLayoutAccessors(t *testing.T) {
	s := open(t, occ.Config{DataCenters: 3, Partitions: 8, Engine: occ.CureStar, Seed: 6})
	if s.DataCenters() != 3 || s.Partitions() != 8 {
		t.Fatalf("layout = %dx%d", s.DataCenters(), s.Partitions())
	}
	if s.Engine() != occ.CureStar {
		t.Fatal("engine accessor wrong")
	}
	p := s.PartitionOf("somekey")
	if p < 0 || p >= 8 {
		t.Fatalf("partition = %d", p)
	}
}

func TestHAPOCCPartitionFallbackPublicAPI(t *testing.T) {
	s := open(t, occ.Config{
		DataCenters: 2, Partitions: 2, Engine: occ.HAPOCC,
		StabilizationInterval: 5 * time.Millisecond,
		BlockTimeout:          40 * time.Millisecond,
		Seed:                  7,
	})
	// Write a causal chain in DC0 while DC0→DC1 is partitioned so DC1 keeps
	// only part of it.
	w, err := s.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put("x", []byte("x0")); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool {
		r, errSess := s.Session(1)
		if errSess != nil {
			t.Fatal(errSess)
		}
		v, errGet := r.Get("x")
		return errGet == nil && string(v) == "x0"
	}) {
		t.Fatal("x0 never replicated")
	}

	s.PartitionNetwork(0, 1, true)
	if err := w.Put("x", []byte("x1")); err != nil {
		t.Fatal(err)
	}

	r, err := s.Session(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pessimistic() {
		t.Fatal("session must start optimistic")
	}
	// Reads in DC1 still complete during the partition (they see old data).
	v, err := r.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "x0" {
		t.Fatalf("during partition read %q", v)
	}
	s.PartitionNetwork(0, 1, false)
	if !waitFor(t, 2*time.Second, func() bool {
		v, errGet := r.Get("x")
		return errGet == nil && string(v) == "x1"
	}) {
		t.Fatal("x1 not visible after heal")
	}
}
