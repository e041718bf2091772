package wal

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestReadRangeMatchesFullScan is the differential property behind the seek
// optimization: for any per-origin window, ReadRange + the caller's record
// filter must deliver exactly the records ReadFrom + the same filter would.
// The workload forces every index transition — segment rolls (trailers),
// checkpoints that prune records (snapshot ranges, from the emitted Records'
// tags), async groups, and close/reopen cycles (trailers, and the tags replay
// returns). With records, the appends stage Records, so live segments are
// indexed by their own tags; without, they are untagged byte records, whose
// segments the index must never skip.
func TestReadRangeMatchesFullScan(t *testing.T) {
	type input struct {
		seed    int64
		records bool
	}
	var inputs []input
	for _, records := range []bool{false, true} {
		for seed := int64(1); seed <= 5; seed++ {
			inputs = append(inputs, input{seed, records})
		}
	}
	for _, in := range inputs {
		seed, records := in.seed, in.records
		name := fmt.Sprintf("seed=%d", seed)
		if records {
			name = "records," + name
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			const origins = 4
			opts := Options{SegmentBytes: 1 << 10, NoSync: true}

			// live tracks the records currently in the log's history: the
			// checkpoint fill emits a surviving subset (mimicking GC pruning)
			// and appends add to it.
			type trec struct {
				origin int
				ts     uint64
			}
			var live []trec
			next := [origins]uint64{1, 1, 1, 1}

			l, err := Open(dir, opts, tagReplay)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { l.Close() }()

			for step := 0; step < 400; step++ {
				switch r := rng.Intn(100); {
				case r < 70: // append a small batch, sync or async
					n := 1 + rng.Intn(6)
					recs := make([]*testRecord, 0, n)
					for i := 0; i < n; i++ {
						o := rng.Intn(origins)
						ts := next[o]
						next[o] += uint64(1 + rng.Intn(3)) // leave ts gaps
						recs = append(recs, &testRecord{o, ts, fmt.Sprintf("s%d", step)})
						live = append(live, trec{o, ts})
					}
					switch sync := rng.Intn(2) == 0; {
					case records && sync:
						err = l.AppendRecords(n, func(i int) Record { return recs[i] })
					case records:
						for _, r := range recs {
							if err = l.AppendRecordAsync(r); err != nil {
								break
							}
						}
					case sync:
						err = l.Append(encodeAll(recs)...)
					default:
						err = l.AppendAsync(encodeAll(recs)...)
					}
					if err != nil {
						t.Fatal(err)
					}
				case r < 85 && len(live) > 0: // checkpoint, pruning ~30%
					var survivors []trec
					for _, tr := range live {
						if rng.Intn(10) < 7 {
							survivors = append(survivors, tr)
						}
					}
					err := l.Checkpoint(func(emit func(Record)) {
						for _, tr := range survivors {
							emit(&testRecord{tr.origin, tr.ts, "snap"})
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					live = survivors
				case r < 92: // barrier: flush async appends
					if err := l.Barrier(); err != nil {
						t.Fatal(err)
					}
				default: // close and reopen: rebuild index from trailers + sift
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					if l, err = Open(dir, opts, tagReplay); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := l.Barrier(); err != nil {
				t.Fatal(err)
			}

			// Probe random windows plus the empty and unbounded extremes.
			skipped := 0
			for probe := 0; probe < 60; probe++ {
				lo := make([]uint64, origins)
				hi := make([]uint64, origins)
				for o := 0; o < origins; o++ {
					switch probe % 3 {
					case 0: // recent-gap shape: (n-k, n]
						hi[o] = next[o]
						if k := uint64(rng.Intn(20)); k < hi[o] {
							lo[o] = hi[o] - k
						}
					case 1: // arbitrary window
						a, b := uint64(rng.Intn(int(next[o]+1))), uint64(rng.Intn(int(next[o]+1)))
						if a > b {
							a, b = b, a
						}
						lo[o], hi[o] = a, b
					case 2: // empty for this origin
						lo[o], hi[o] = 0, 0
					}
				}
				skipped += checkWindow(t, l, lo, hi)
			}
			if skipped == 0 {
				t.Fatal("no probe skipped a part: the index went unexercised")
			}
		})
	}
}

// checkWindow asserts that ReadRange plus the window filter delivers exactly
// the records ReadFrom plus the same filter does, and returns how many parts
// ReadRange skipped.
func checkWindow(t testing.TB, l *Log, lo, hi []uint64) int {
	t.Helper()
	inWindow := func(rec []byte) (string, bool) {
		o, ts, _ := tagReplay(rec)
		return fmt.Sprintf("%d@%d", o, ts), o >= 0 && o < len(lo) && ts > lo[o] && ts <= hi[o]
	}
	full := map[string]int{}
	if err := l.ReadFrom(0, func(_ uint64, rec []byte) error {
		if k, ok := inWindow(rec); ok {
			full[k]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ranged := map[string]int{}
	skipped, err := l.ReadRange(lo, hi, func(_ uint64, rec []byte) error {
		if k, ok := inWindow(rec); ok {
			ranged[k]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, n := range full {
		if ranged[k] != n {
			t.Errorf("lo=%v hi=%v: %s seen %d times in full scan, %d in ranged read", lo, hi, k, n, ranged[k])
		}
	}
	for k, n := range ranged {
		if full[k] == 0 {
			t.Errorf("lo=%v hi=%v: ranged read produced %s (%d) absent from full scan", lo, hi, k, n)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	return skipped
}

// encodeAll encodes records as the byte records Append takes.
func encodeAll(recs []*testRecord) [][]byte {
	out := make([][]byte, len(recs))
	for i, r := range recs {
		out[i] = r.AppendTo(nil)
	}
	return out
}
