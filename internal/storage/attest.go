package storage

import (
	"encoding/binary"

	"repro/internal/vclock"
	"repro/internal/wal"
)

// Version-vector attestation records.
//
// Most VV advances are backed by version records: replay rebuilds them. But
// heartbeat attestations and catch-up completion claims raise entries past
// the last version this partition stored — a DC that writes nothing to this
// partition's keyspace advances here without leaving a single record. A
// crash forgets those advances, and that is not merely a liveness hiccup:
// the server's GC contributions promised the DC a floor ("any snapshot I
// hand out covers at least this"), siblings pruned their chains to the
// aggregate of those promises, and a restart that comes back below its own
// promise coordinates transactions whose snapshot vector sits under the
// prune point. Slices then find chains whose every surviving version
// carries dependencies above the snapshot — a permanently broken causal
// cut, observed as RO-TX holes until catch-up re-raises the VV.
//
// The repair is an invariant between GC and recovery: a contribution is
// only shared after the vector is durable, so the VV any restart rebuilds
// covers every contribution this node ever made — and therefore every GC
// vector derived from them. AttestVV is the durability half; OpenDurable
// folds replayed attestations back into the recovered floor, and
// checkpoints re-emit the latest attestation so compaction cannot lose it.

// attestMarker prefixes a VV-attestation record in the log. It is outside
// the wire codec's version-record marker space (0 = nil, 1 = version) and
// distinct from the WAL's index-trailer magic (0xF7…), so the record kinds
// sharing the log never collide.
const attestMarker = 0x02

// attestRecord is an attestation as the log sees it: a wal.Record whose
// payload is the marker and the vector, and whose tag keeps it out of the
// range index, so a part carrying one stays skippable for catch-up seeks.
type attestRecord vclock.VC

func (a attestRecord) AppendTo(b []byte) []byte {
	b = append(b, attestMarker)
	b = binary.AppendUvarint(b, uint64(len(a)))
	for _, t := range a {
		b = binary.AppendUvarint(b, uint64(t))
	}
	return b
}

func (a attestRecord) MaxSize() int { return (2 + len(a)) * binary.MaxVarintLen64 }

func (a attestRecord) Tag() (int, uint64) { return wal.Neutral, 0 }

// isAttest reports whether rec is a VV-attestation record.
func isAttest(rec []byte) bool { return len(rec) > 0 && rec[0] == attestMarker }

// parseAttest decodes an attestation record. ok=false means rec carries the
// attestation marker but is malformed — committed frames are CRC-checked,
// so that is real corruption, not a torn tail.
func parseAttest(rec []byte) (vclock.VC, bool) {
	b := rec[1:]
	n, un := binary.Uvarint(b)
	if un <= 0 || n > 1<<16 {
		return nil, false
	}
	b = b[un:]
	vv := make(vclock.VC, 0, n)
	for i := uint64(0); i < n; i++ {
		t, un := binary.Uvarint(b)
		if un <= 0 {
			return nil, false
		}
		b = b[un:]
		vv = append(vv, vclock.Timestamp(t))
	}
	return vv, true
}

// AttestVV persists vv as a version-vector floor: once it returns, a
// crash-recovered engine reports a RecoveredVV covering vv even where no
// stored version backs an entry. The partition server attests each GC
// contribution before sharing it (core.Server.localGCContribution). It
// returns the vector now durably attested — vv itself on success, the
// entry-wise minimum of vv and the previous attestation when the append
// fails (sticky error) — which is the safe value to expose in a GC
// contribution.
//
// Entries already covered by an earlier attestation cost nothing; an
// advance is one small record on the group-commit pipeline, committed
// synchronously so the caller's floor claim is backed by fsynced bytes.
func (d *Durable) AttestVV(vv vclock.VC) vclock.VC {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.gcMu.Lock()
	if vv.LessEq(d.attested) {
		d.gcMu.Unlock()
		return vv
	}
	prev := d.attested.Clone()
	d.gcMu.Unlock()
	// Append outside gcMu: the commit wait is a group-commit latency, and
	// GC bookkeeping must not stall behind it. d.mu (held shared) already
	// excludes the checkpoint writer, so the record cannot slip past a
	// concurrent log truncation.
	if err := d.log.AppendRecords(1, func(int) wal.Record { return attestRecord(vv) }); err != nil {
		d.fail(err)
		safe := vv.Clone().GrowTo(len(prev))
		safe.MinInPlace(prev)
		return safe
	}
	d.gcMu.Lock()
	d.attested = d.attested.GrowTo(len(vv))
	d.attested.MaxInPlace(vv)
	d.gcMu.Unlock()
	return vv
}
