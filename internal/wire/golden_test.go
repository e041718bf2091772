package wire

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// goldenBase is a timestamp of deployed magnitude: the HBTime of the golden
// batches and the neighbourhood of their versions' timestamps.
const goldenBase = vclock.Timestamp(1 << 44)

// goldenVersions covers every shape a version record takes: nil, nil and
// empty values, nil and empty vectors, zero and nonzero entries on both
// sides of the base.
func goldenVersions() []*item.Version {
	return []*item.Version{
		{Key: "k1", Value: []byte("v1"), SrcReplica: 2, UpdateTime: goldenBase - 7,
			Deps: vclock.VC{goldenBase - 900, 0, goldenBase + 3}, Optimistic: true},
		nil,
		{Key: "", Value: nil, SrcReplica: 0, UpdateTime: goldenBase + 1, Deps: nil},
		{Key: "k3", Value: []byte{}, SrcReplica: 1, UpdateTime: 5, Deps: vclock.VC{}},
	}
}

// goldenSlotMap is a resharded table: mostly round-robin owners, a few slots
// moved at later epochs.
func goldenSlotMap() *keyspace.SlotMap {
	m := &keyspace.SlotMap{Epoch: 3, Parts: 3}
	for s := range keyspace.NumSlots {
		m.Owner[s] = uint8(s % 2)
	}
	m.Owner[7], m.Stamp[7] = 2, 1
	m.Owner[200], m.Stamp[200] = 2, 2
	return m
}

// goldenSrc is the source node of every golden envelope.
var goldenSrc = netemu.NodeID{DC: 1, Partition: 2}

// goldenMessages holds a message of every type by name: nil and empty lists
// included, and both ReplicateBatch layouts.
func goldenMessages() map[string]any {
	view := msg.Membership{Epoch: 4, Status: []uint8{1, 2, 0, 3}, Final: vclock.VC{0, goldenBase}}
	return map[string]any{
		"batch-delta": msg.ReplicateBatch{HBTime: goldenBase, Versions: goldenVersions(),
			Epoch: 3, Seq: 1 << 16, Floor: goldenBase - 5000, SlotEpoch: 2},
		"batch-delta-nil":   msg.ReplicateBatch{HBTime: goldenBase, Epoch: 1, Seq: 1},
		"batch-delta-empty": msg.ReplicateBatch{HBTime: goldenBase, Versions: []*item.Version{}, Seq: 2},
		// 1<<63 past the base is the one dependency delta the compact layout
		// cannot carry, so the batch falls back to absolute timestamps.
		"batch-absolute": msg.ReplicateBatch{HBTime: goldenBase, Versions: append(goldenVersions(),
			&item.Version{Key: "k4", Value: []byte("v4"), SrcReplica: 1, UpdateTime: goldenBase,
				Deps: vclock.VC{goldenBase + 1<<63}}), Epoch: 3, Seq: 9},
		"heartbeat": msg.Heartbeat{Time: goldenBase, Epoch: 3, Seq: 300, Floor: goldenBase - 1},
		"slice-req": &msg.SliceReq{TxID: 77, Coordinator: netemu.NodeID{DC: 2, Partition: 1},
			Keys: []string{"a", "", "bcd"}, TV: vclock.VC{goldenBase, 0}},
		"slice-req-nil":   &msg.SliceReq{TxID: 1},
		"slice-req-empty": &msg.SliceReq{TxID: 2, Keys: []string{}, TV: vclock.VC{}},
		"slice-resp": &msg.SliceResp{TxID: 77, Items: []msg.ItemReply{
			{Key: "a", Exists: true, Value: []byte("x"), SrcReplica: 1, UpdateTime: goldenBase,
				Deps: vclock.VC{1, 2}, Fresher: 3, Invisible: 1},
			{Key: "b", Value: []byte{}, Deps: vclock.VC{}},
			{Key: "c"},
		}, Err: ""},
		"slice-resp-nil":   &msg.SliceResp{TxID: 1, Err: "block timeout"},
		"slice-resp-empty": &msg.SliceResp{TxID: 2, Items: []msg.ItemReply{}},
		"vv-exchange":      msg.VVExchange{Partition: 3, VV: vclock.VC{goldenBase, 0, 9}, Watermark: goldenBase - 2},
		"gc-exchange":      msg.GCExchange{Partition: 1, TV: nil},
		"catchup-request":  msg.CatchUpRequest{ReqID: 5, From: goldenBase - 100, Have: vclock.VC{}},
		"catchup-reply": msg.CatchUpReply{ReqID: 5, Chunk: 2, Versions: goldenVersions(),
			Done: true, ResumeEpoch: 3, ResumeSeq: 44, Through: goldenBase, FullResync: true,
			Departed:  []msg.DepartedClaim{{DC: 2, Through: goldenBase - 9}, {DC: 4}},
			SlotEpoch: 6, Progress: vclock.VC{goldenBase, goldenBase + 1}},
		"catchup-reply-nil":   msg.CatchUpReply{ReqID: 6, Chunk: 1, Unsupported: true},
		"catchup-reply-empty": msg.CatchUpReply{ReqID: 7, Versions: []*item.Version{}, Departed: []msg.DepartedClaim{}, Progress: vclock.VC{}},
		"catchup-ack":         msg.CatchUpAck{ReqID: 5, Chunk: 2},
		"join-request":        msg.JoinRequest{DC: 3, View: view},
		"membership-update":   msg.MembershipUpdate{View: msg.Membership{Epoch: 1, Status: []uint8{}}},
		"membership-nil":      msg.MembershipUpdate{},
		"leave-notice":        msg.LeaveNotice{DC: 1, Final: goldenBase, View: view},
		"evict-proposal":      msg.EvictProposal{DC: 2, ReqID: 8, View: view},
		"evict-ack":           msg.EvictAck{DC: 2, ReqID: 8, Entry: goldenBase + 5},
		"slotmap-update":      msg.SlotMapUpdate{Map: goldenSlotMap()},
		"slotmap-update-nil":  msg.SlotMapUpdate{},
		"slot-handoff":        msg.SlotHandoff{Versions: goldenVersions()},
		"slot-handoff-nil":    msg.SlotHandoff{},
		"slot-handoff-empty":  msg.SlotHandoff{Versions: []*item.Version{}},
		// A frame past 16 KiB: a three-byte length prefix.
		"slot-handoff-large": msg.SlotHandoff{Versions: []*item.Version{
			{Key: "big", Value: bytes.Repeat([]byte("0123456789abcdef"), 1<<10), UpdateTime: goldenBase}}},
	}
}

// goldenCorpus is every encoding the golden file pins, by name: an envelope
// of each of goldenMessages, AppendVersion records, and front-door frames of
// every op and response kind.
func goldenCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for name, m := range goldenMessages() {
		var buf bytes.Buffer
		if err := NewBinaryEncoder(&buf).Encode(Envelope{Src: goldenSrc, Msg: m}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out["env/"+name] = buf.Bytes()
	}
	for i, v := range goldenVersions() {
		out["version/"+string(rune('a'+i))] = AppendVersion(nil, v)
	}
	for name, r := range map[string]FrontDoorRequest{
		"ping":       {Op: FDPing, ID: 1, Session: 2},
		"put":        {Op: FDPut, ID: 300, Session: 7, Key: "user:42", Value: []byte("ada")},
		"put-nil":    {Op: FDPut, ID: 3, Session: 7, Key: "k"},
		"put-empty":  {Op: FDPut, ID: 4, Session: 7, Key: "k", Value: []byte{}},
		"get":        {Op: FDGet, ID: 5, Session: 1 << 20, Key: "user:42"},
		"rotx":       {Op: FDROTx, ID: 6, Session: 7, Keys: []string{"a", "", "user:42"}},
		"rotx-nil":   {Op: FDROTx, ID: 7, Session: 7},
		"rotx-empty": {Op: FDROTx, ID: 8, Session: 7, Keys: []string{}},
		"stats":      {Op: FDStats, ID: 9},
		"admin":      {Op: FDAdmin, ID: 10, Session: 3, Line: "MOVESLOTS 1 4 5"},
		"put-large":  {Op: FDPut, ID: 11, Session: 3, Key: "big", Value: bytes.Repeat([]byte("0123456789abcdef"), 1<<10)},
	} {
		out["fd-req/"+name] = AppendFrontDoorRequest(nil, &r)
	}
	for name, r := range map[string]FrontDoorResponse{
		"ok":       {Kind: FDOK, ID: 1},
		"err":      {Kind: FDErr, ID: 2, Code: FDCodeWrongSlotEpoch, Text: "wrong slot epoch"},
		"value":    {Kind: FDValue, ID: 300, Exists: true, Value: []byte("ada")},
		"value-no": {Kind: FDValue, ID: 4},
		"tx": {Kind: FDTx, ID: 5, Items: []FrontDoorTxItem{
			{Key: "a", Exists: true, Value: []byte("x")}, {Key: "b", Value: []byte{}}, {Key: ""}}},
		"tx-nil":   {Kind: FDTx, ID: 6},
		"tx-empty": {Kind: FDTx, ID: 7, Items: []FrontDoorTxItem{}},
		"text":     {Kind: FDText, ID: 8, Text: "SLOTS epoch=0 parts=2\nSLOTEND"},
	} {
		out["fd-resp/"+name] = AppendFrontDoorResponse(nil, &r)
	}
	return out
}

// TestGoldenBytes pins the exact bytes of every encoding in goldenCorpus to
// testdata/golden.txt, one "name hex" line each ("name sha256:hex" for a
// frame too long to read). Round trips cannot catch a drift the encoder and
// decoder make together, and AppendVersion's bytes are what a durable
// engine's write-ahead log holds: a data directory must stay readable across
// releases. A changed line is a format change, which needs a reader for the
// old bytes, not a regenerated file.
func TestGoldenBytes(t *testing.T) {
	f, err := os.Open("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if name, h, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = h
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenCorpus(t)
	for name, b := range got {
		h := hex.EncodeToString(b)
		if strings.HasPrefix(want[name], "sha256:") {
			sum := sha256.Sum256(b)
			h = "sha256:" + hex.EncodeToString(sum[:])
		}
		if h != want[name] {
			t.Errorf("%s: encoding drifted\n got %s\nwant %s", name, h, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: in the golden file but no longer encoded", name)
		}
	}
}
