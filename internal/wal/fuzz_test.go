package wal

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/item"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// FuzzWALDecode feeds arbitrary bytes through the full segment-recovery
// decode path — record framing plus wire version decoding — asserting that
// corrupted or truncated segments only ever produce errors, never panics.
// This is exactly what Open does with an untrusted segment file.
func FuzzWALDecode(f *testing.F) {
	// Seed with well-formed segments so the fuzzer mutates realistic input.
	v := &item.Version{
		Key:        "user:42",
		Value:      []byte("payload"),
		SrcReplica: 1,
		UpdateTime: 123456,
		Deps:       vclock.VC{7, 0, 99},
		Optimistic: true,
	}
	rec := wire.AppendVersion(nil, v)
	f.Add(appendFrame(nil, rec))
	f.Add(appendFrame(appendFrame(nil, rec), rec))
	f.Add(appendFrame(nil, rec)[:5]) // torn tail
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Framing layer: must terminate and never panic, both tolerating and
		// rejecting a torn tail.
		for _, tolerate := range []bool{true, false} {
			_, _ = walk(data, func(payload []byte) error {
				// Payload layer: version records from a frame that passed the
				// checksum still must decode without panicking (the checksum
				// protects torn writes, not malicious bytes).
				if _, _, err := wire.DecodeVersion(payload); err != nil {
					return nil // an error is the accepted outcome
				}
				return nil
			}, tolerate)
		}
	})
}

// FuzzWALStage drives a log through an interleaving of byte appends and
// Record appends, synchronous and not, of random sizes — up to a record
// longer than the committer's encode buffer — and checkpoints, then reopens
// it: the replay must be the model, every record in the order it was staged,
// and a window over each origin's newer half must read what a full scan does.
// Records, checkpoints and replay tag; byte records do not.
func FuzzWALStage(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 0, 9})
	f.Add([]byte{2, 255, 3, 254, 0, 255, 1, 63, 4, 0, 2, 7, 3, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		dir := t.TempDir()
		opts := Options{SegmentBytes: 4 << 10, NoSync: true}
		l, _ := replayAll(t, dir, opts)
		var model []*testRecord
		var ts uint64
		// stage makes 1 + size%4 records; size 255 makes them longer than an
		// encode buffer.
		stage := func(size byte) []*testRecord {
			recs := make([]*testRecord, 1+size%4)
			for i := range recs {
				ts++
				n := int(size) * 16
				if size == 255 {
					n = encodeBufBytes + 1
				}
				recs[i] = &testRecord{origin: int(ts % 3), ts: ts, body: strings.Repeat("x", n)}
				model = append(model, recs[i])
			}
			return recs
		}
		for i := 0; i+1 < len(ops); i += 2 {
			var err error
			switch size := ops[i+1]; ops[i] % 5 {
			case 0:
				err = l.Append(encodeAll(stage(size))...)
			case 1:
				err = l.AppendAsync(encodeAll(stage(size))...)
			case 2:
				recs := stage(size)
				err = l.AppendRecords(len(recs), func(i int) Record { return recs[i] })
			case 3:
				for _, r := range stage(size) {
					if err = l.AppendRecordAsync(r); err != nil {
						break
					}
				}
			case 4:
				err = l.Checkpoint(func(emit func(Record)) {
					for _, r := range model {
						emit(r)
					}
				})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		l2, err := Open(dir, opts, func(rec []byte) (int, uint64, error) {
			got = append(got, append([]byte(nil), rec...))
			return tagReplay(rec)
		})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if len(got) != len(model) {
			t.Fatalf("replayed %d records, want %d", len(got), len(model))
		}
		for i, r := range model {
			if want := r.AppendTo(nil); !bytes.Equal(got[i], want) {
				t.Fatalf("record %d: replayed %d bytes, want %d", i, len(got[i]), len(want))
			}
		}
		checkWindow(t, l2, []uint64{ts / 2, ts / 2, ts / 2}, []uint64{ts, ts, ts})
	})
}
