package cluster

import (
	"bytes"
	"testing"

	"repro/internal/msg"
	"repro/internal/wire"
)

// TestRelayPausesOnlySameDCRequests pins the relay's drop list against the
// message set the wire carries, found from outside: for each tag a frame of
// that tag and an all-zero body of the length its decoder wants. While a
// server is down its relay pauses the four same-DC request/response types —
// dropping them would wedge a live RO-TX coordinator or a peer's exchange —
// and drops everything else, as a dead machine would. A type added to wire
// lands on the drop side unless it is named here.
func TestRelayPausesOnlySameDCRequests(t *testing.T) {
	var all []any
	for tag := 0; tag < 256; tag++ {
		for n := 0; n < 64; n++ {
			frame := append([]byte{byte(3 + n), byte(tag), 1, 0}, make([]byte, n)...)
			if env, err := wire.NewBinaryDecoder(bytes.NewReader(frame)).Decode(); err == nil {
				all = append(all, env.Msg)
				break
			}
		}
	}
	paused := 0
	for _, m := range all {
		switch m.(type) {
		case msg.VVExchange, msg.GCExchange, *msg.SliceReq, *msg.SliceResp:
			paused++
			if isReplPlane(m) {
				t.Errorf("%T is dropped while its receiver is down; want it paused", m)
			}
		default:
			if !isReplPlane(m) {
				t.Errorf("%T is paused while its receiver is down; want it dropped", m)
			}
		}
	}
	if paused != 4 || len(all) < 15 {
		t.Fatalf("%d wire types found (15 when this was written), %d of them paused (want 4)", len(all), paused)
	}
}
