package wire

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// benchEnvelope is a representative replication frame: one batch of eight
// versions with 3-entry dependency vectors and 8-byte payloads, the shape
// the Δ-flush produces under the paper's workload.
func benchEnvelope() Envelope {
	batch := &msg.ReplicateBatch{HBTime: 123456789}
	for i := 0; i < 8; i++ {
		batch.Versions = append(batch.Versions, &item.Version{
			Key:        "bench-key-42",
			Value:      []byte("00000000"),
			SrcReplica: 1,
			UpdateTime: vclock.Timestamp(1000000 + i),
			Deps:       vclock.VC{999999, 888888, 777777},
		})
	}
	return Envelope{Src: netemu.NodeID{DC: 1, Partition: 3}, Msg: batch}
}

func BenchmarkWireCodecEncodeBinary(b *testing.B) {
	env := benchEnvelope()
	enc := NewBinaryEncoder(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireCodecDecodeBinary(b *testing.B) {
	env := benchEnvelope()
	// Pre-encode b.N frames into one stream so decode cost dominates.
	var buf bytes.Buffer
	enc := NewBinaryEncoder(&buf)
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(env); err != nil {
			b.Fatal(err)
		}
	}
	dec := NewBinaryDecoder(bytes.NewReader(buf.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireCodecHeartbeat measures the smallest frame — the steady
// idle-DC traffic.
func BenchmarkWireCodecHeartbeat(b *testing.B) {
	env := Envelope{Src: netemu.NodeID{DC: 2, Partition: 0}, Msg: &msg.Heartbeat{Time: 987654321}}
	enc := NewBinaryEncoder(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(env); err != nil {
			b.Fatal(err)
		}
	}
}
