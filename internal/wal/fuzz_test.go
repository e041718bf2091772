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
		if p := validPrefix(data); p < 0 || p > len(data) {
			t.Fatalf("validPrefix out of range: %d of %d", p, len(data))
		}
	})
}

// FuzzWALStage drives a log through an interleaving of byte appends and
// Record appends, synchronous and not, of random sizes — up to a record
// longer than the committer's encode buffer — and checkpoints, then reopens
// it: the replay must be the model, every record in the order it was staged.
func FuzzWALStage(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 0, 9})
	f.Add([]byte{2, 255, 3, 254, 0, 255, 1, 63, 4, 0, 2, 7, 3, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		dir := t.TempDir()
		l, _ := replayAll(t, dir, Options{SegmentBytes: 4 << 10, TagOf: testTagOf, NoSync: true})
		var model [][]byte
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
				model = append(model, recs[i].AppendTo(nil))
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
				err = l.Checkpoint(emitAll(model))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, got := replayAll(t, dir, Options{})
		defer l2.Close()
		if len(got) != len(model) {
			t.Fatalf("replayed %d records, want %d", len(got), len(model))
		}
		for i := range model {
			if !bytes.Equal(got[i], model[i]) {
				t.Fatalf("record %d: replayed %d bytes, want %d", i, len(got[i]), len(model[i]))
			}
		}
	})
}
