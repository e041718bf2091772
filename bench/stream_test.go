package main

import (
	"bytes"
	"testing"

	"repro/internal/keyspace"
	"repro/internal/workload"
)

// head serializes the first n operations of one client's stream.
func head(spec *workloadSpec, seed uint64, client, n int) []byte {
	table := keyspace.Build(numPartitions, keysPerPartition)
	zipf := workload.NewZipf(keysPerPartition, zipfExponent)
	st := newStream(spec, table, zipf, seed, client)
	var b []byte
	for i := 0; i < n; i++ {
		b = appendOp(b, st.next())
	}
	return b
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, spec := range workloads {
		for client := 0; client < numClients; client++ {
			a := head(spec, 42, client, 1000)
			if !bytes.Equal(a, head(spec, 42, client, 1000)) {
				t.Errorf("%s client %d: same seed, different first 1000 operations", spec.name, client)
			}
			if bytes.Equal(a, head(spec, 7, client, 1000)) {
				t.Errorf("%s client %d: seeds 42 and 7 give the same operations", spec.name, client)
			}
		}
		if bytes.Equal(head(spec, 42, 0, 1000), head(spec, 42, 1, 1000)) {
			t.Errorf("%s: clients 0 and 1 issue the same operations", spec.name)
		}
	}
}

func TestStreamCarriesItsMixAndTheOwnKey(t *testing.T) {
	table := keyspace.Build(numPartitions, keysPerPartition)
	zipf := workload.NewZipf(keysPerPartition, zipfExponent)
	for _, spec := range workloads {
		st := newStream(spec, table, zipf, 42, 3)
		kinds := map[workload.OpKind]int{}
		ownGets, ownPuts := 0, 0
		for i := 0; i < 20_000; i++ {
			o := st.next()
			kinds[o.Kind]++
			if o.own && o.Kind == workload.OpGet {
				ownGets++
			}
			if o.own && o.Kind == workload.OpPut {
				ownPuts++
				if !bytes.Equal(o.Value, st.ownLast) || len(o.Value) != max(spec.valueSize, 8) {
					t.Fatalf("%s: own PUT carries %x, stream remembers %x", spec.name, o.Value, st.ownLast)
				}
			}
		}
		want := []workload.OpKind{workload.OpGet, workload.OpPut}
		if spec.rotx {
			want = []workload.OpKind{workload.OpROTx, workload.OpPut}
		}
		for _, k := range want {
			if kinds[k] == 0 {
				t.Errorf("%s: no operation of kind %d in 20000", spec.name, k)
			}
		}
		if len(kinds) != len(want) {
			t.Errorf("%s: %d operation classes in the stream, want %d", spec.name, len(kinds), len(want))
		}
		if spec.ownEvery > 0 && (ownGets == 0 || ownPuts == 0) {
			t.Errorf("%s: own-key gate sees %d GETs and %d PUTs", spec.name, ownGets, ownPuts)
		}
	}
}
