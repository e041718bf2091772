package storage

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/item"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// TestDecodedBatchOwnsItsBytes pins the wire → repl → engine hand-off: a
// decoded batch aliases its own frame, never the decoder's reused frame
// buffer or lent list, so versions stored from one batch are
// untouched by every later frame read through the same decoder — and the
// durable engine's pooled record scratch, reused by every later append,
// leaves the logged records intact too.
func TestDecodedBatchOwnsItsBytes(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{AckMode: AckGrouped, NoSync: true, CheckpointBytes: -1}
	store, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	enc, dec := wire.NewBinaryEncoder(&stream), wire.NewBinaryDecoder(&stream)

	// Same-shaped batches, so a decoder that reused one buffer for them would
	// put every frame on the same bytes; distinct keys, so every version
	// stays a chain head.
	const rounds, batchLen = 50, 4
	want := map[string]*item.Version{}
	for r := 0; r < rounds; r++ {
		vs := make([]*item.Version, batchLen)
		for i := range vs {
			ts := vclock.Timestamp(1<<44 + r*batchLen + i)
			vs[i] = &item.Version{
				Key:   fmt.Sprintf("r%03d-k%d", r, i),
				Value: bytes.Repeat([]byte{byte('a' + r%26)}, 32), SrcReplica: 1,
				UpdateTime: ts, Deps: vclock.VC{ts - 7, vclock.Timestamp(r + 1), 0},
			}
			want[vs[i].Key] = vs[i]
		}
		store.InsertBatch(replicate(t, enc, dec, vs))
		store.Insert(&item.Version{Key: fmt.Sprintf("local-%03d", r), Value: []byte{byte(r)}, UpdateTime: vclock.Timestamp(1<<45 + r), Deps: vclock.New(3)})
	}

	check := func(e Engine, what string) {
		t.Helper()
		for key, w := range want {
			got := e.Head(key)
			if got == nil || got.Key != w.Key || !bytes.Equal(got.Value, w.Value) ||
				!got.Deps.Equal(w.Deps) || got.UpdateTime != w.UpdateTime || got.SrcReplica != w.SrcReplica {
				t.Fatalf("%s: version of %q changed after later frames were decoded:\n got %+v\nwant %+v", what, key, got, w)
			}
		}
	}
	check(store, "live engine")
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check(reopened, "recovered from the log")
}
