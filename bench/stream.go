package main

import (
	"encoding/binary"
	"math/rand/v2"
	"strconv"

	"repro/internal/keyspace"
	"repro/internal/workload"
)

// op is one generated client operation. The program under test sees only
// these: which key, which value, which kind.
type op struct {
	workload.Op
	// own marks an operation on the key this client alone writes; a GET of
	// it must return the client's last acknowledged PUT.
	own bool
}

// stream produces one client's operations from the seed. It draws the mix
// from an internal/workload generator and redirects every ownEvery-th GET or
// PUT to the client's own key. A stream is owned by one goroutine.
type stream struct {
	rng *rand.Rand
	mix workload.Generator

	ownKey   string
	ownEvery int
	ownSeq   uint64
	ownLast  []byte // value of the last own-key PUT generated
	valSize  int
	ownCount int
}

func newStream(spec *workloadSpec, table *keyspace.Table, zipf *workload.Zipf, seed uint64, client int) *stream {
	s := &stream{
		rng:      rand.New(rand.NewPCG(seed, uint64(client)+1)),
		ownKey:   ownKey(client),
		ownEvery: spec.ownEvery,
		ownLast:  ownValue(0, spec.valueSize),
		valSize:  spec.valueSize,
	}
	if spec.rotx {
		s.mix = workload.NewROTxMix(table, zipf, table.Partitions(), spec.valueSize)
	} else {
		s.mix = workload.NewGetPutMix(table, zipf, spec.getsPerPut, spec.valueSize)
	}
	return s
}

func ownKey(client int) string { return "own-" + strconv.Itoa(client) }

// ownValue encodes sequence number seq as a value of the workload's size.
func ownValue(seq uint64, size int) []byte {
	if size < 8 {
		size = 8
	}
	v := make([]byte, size)
	binary.BigEndian.PutUint64(v[size-8:], seq)
	return v
}

func (s *stream) next() op {
	o := op{Op: s.mix.Next(s.rng)}
	if s.ownEvery == 0 || o.Kind == workload.OpROTx {
		return o
	}
	s.ownCount++
	if s.ownCount%s.ownEvery != 0 {
		return o
	}
	o.own = true
	o.Keys[0] = s.ownKey
	if o.Kind == workload.OpPut {
		s.ownSeq++
		s.ownLast = ownValue(s.ownSeq, s.valSize)
		o.Value = s.ownLast
	}
	return o
}

// appendOp serializes an operation; tests compare streams byte for byte.
func appendOp(b []byte, o op) []byte {
	b = append(b, byte(o.Kind))
	for _, k := range o.Keys {
		b = append(b, k...)
		b = append(b, 0)
	}
	b = append(b, o.Value...)
	return append(b, 0xff)
}
