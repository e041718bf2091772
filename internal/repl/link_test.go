package repl

import (
	"testing"
	"time"

	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// linkRig is one manager at dc0-p0 of three DCs, watched on its link from DC 1.
type linkRig struct {
	m  *Manager
	tr *fakeTransport
	be *fakeBackend
}

var linkSrc = netemu.NodeID{DC: 1, Partition: 0}

func linkBatch(epoch, seq uint64, ts ...vclock.Timestamp) *msg.ReplicateBatch {
	b := &msg.ReplicateBatch{HBTime: ts[len(ts)-1], Epoch: epoch, Seq: seq}
	for _, t := range ts {
		b.Versions = append(b.Versions, ver(1, t, "k"))
	}
	return b
}

// round returns the newest catch-up request sent on the watched link.
func (r linkRig) round(t *testing.T) msg.CatchUpRequest {
	t.Helper()
	out := r.tr.msgs(linkSrc)
	for i := len(out) - 1; i >= 0; i-- {
		if req, ok := out[i].(msg.CatchUpRequest); ok {
			return req
		}
	}
	t.Fatal("no catch-up request on the link")
	return msg.CatchUpRequest{}
}

func (r linkRig) rounds() (n int) {
	for _, raw := range r.tr.msgs(linkSrc) {
		if _, ok := raw.(msg.CatchUpRequest); ok {
			n++
		}
	}
	return n
}

// link runs fn on the link from dc under its lock.
func (r linkRig) link(dc int, fn func(st *inLink)) {
	st := r.m.in[dc]
	st.mu.Lock()
	defer st.mu.Unlock()
	fn(st)
}

func (r linkRig) stored(dc int) (s LinkState) {
	r.link(dc, func(st *inLink) { s = st.state })
	return s
}

// TestLinkTransitions walks every row of the transition table that heads
// inbound.go with the real handlers: after each event the link's stored
// state is the row's, activeIn counts exactly the links stored as catching
// up, and the link's version-vector entry moved iff the row raises it.
func TestLinkTransitions(t *testing.T) {
	// The states an event starts from. Idle is a fresh manager. Active is
	// synced to (epoch 7, seq 1) with VV[1] = 100. CatchingUp adds a hole
	// (seq 2-3 lost): round 1 is open, the chain is (7, seq 4) on base 3, and
	// the versions of seq 4 were applied when they arrived.
	idle := func(linkRig) {}
	active := func(r linkRig) { r.m.handleBatch(linkSrc, linkBatch(7, 1, 100)) }
	catchingUp := func(r linkRig) {
		active(r)
		r.m.handleBatch(linkSrc, linkBatch(7, 4, 400))
	}
	done := func(r linkRig, t *testing.T, resumeSeq uint64, through vclock.Timestamp) {
		r.m.handleCatchUpReply(linkSrc, msg.CatchUpReply{
			ReqID: r.round(t).ReqID, Done: true, ResumeEpoch: 7, ResumeSeq: resumeSeq, Through: through,
		})
	}
	stale := func(isDone bool) func(linkRig, *testing.T) {
		return func(r linkRig, t *testing.T) {
			r.m.handleCatchUpReply(linkSrc, msg.CatchUpReply{
				ReqID: 1 << 40, Chunk: 1, Done: isDone, ResumeEpoch: 9, ResumeSeq: 9, Through: 900,
				Versions: []*item.Version{ver(1, 150, "s")},
			})
		}
	}
	leave1 := func(r linkRig, final vclock.Timestamp) {
		r.m.handleMembershipUpdate(netemu.NodeID{DC: 2}, msg.MembershipUpdate{View: msg.Membership{
			Epoch: 2, Status: []uint8{msg.DCActive, msg.DCLeft, msg.DCActive}, Final: vclock.VC{0, final, 0},
		}})
	}
	appliedOne := func(r linkRig, t *testing.T, before int) {
		if got := r.be.appliedCount(); got != before+1 {
			t.Errorf("applied %d versions, want %d: the event installs exactly one", got, before+1)
		}
	}

	rows := []struct {
		name  string
		from  func(linkRig)
		event func(linkRig, *testing.T)
		want  LinkState
		vv    vclock.Timestamp // VV[1] afterwards
		also  func(r linkRig, t *testing.T, applied int)
	}{
		{name: "Idle: batch 1, floor covered: adopt", from: idle, want: LinkActive, vv: 100,
			event: func(r linkRig, _ *testing.T) { r.m.handleBatch(linkSrc, linkBatch(7, 1, 100)) }},
		{name: "Idle: heartbeat at seq 0, floor covered: adopt", from: idle, want: LinkActive, vv: 90,
			event: func(r linkRig, _ *testing.T) {
				r.m.handleHeartbeat(linkSrc, &msg.Heartbeat{Time: 90, Epoch: 7})
			}},
		{name: "Idle: first message mid-stream", from: idle, want: LinkCatchingUp,
			event: func(r linkRig, _ *testing.T) { r.m.handleBatch(linkSrc, linkBatch(7, 9, 900)) }},
		{name: "Idle: batch 1 above an uncovered floor", from: idle, want: LinkCatchingUp,
			event: func(r linkRig, _ *testing.T) {
				b := linkBatch(7, 1, 900)
				b.Floor = 800
				r.m.handleBatch(linkSrc, b)
			}},
		{name: "Active: next batch", from: active, want: LinkActive, vv: 200,
			event: func(r linkRig, _ *testing.T) { r.m.handleBatch(linkSrc, linkBatch(7, 2, 200)) }},
		{name: "Active: re-attesting heartbeat", from: active, want: LinkActive, vv: 300,
			event: func(r linkRig, _ *testing.T) {
				r.m.handleHeartbeat(linkSrc, &msg.Heartbeat{Time: 300, Epoch: 7, Seq: 1})
			}},
		{name: "Active: next batch under an eviction freeze", from: active, want: LinkActive, vv: 100,
			event: func(r linkRig, _ *testing.T) {
				// Acking a proposal to evict DC 1 attests VV[1] = 100 and caps
				// the entry there until the verdict.
				r.m.handleEvictProposal(netemu.NodeID{DC: 2}, msg.EvictProposal{DC: 1, ReqID: 1})
				r.m.handleBatch(linkSrc, linkBatch(7, 2, 200))
			}},
		{name: "Active: duplicate", from: active, want: LinkActive, vv: 100,
			event: func(r linkRig, _ *testing.T) { r.m.handleBatch(linkSrc, linkBatch(7, 1, 100)) }},
		{name: "Active: hole", from: active, want: LinkCatchingUp, vv: 100,
			event: func(r linkRig, _ *testing.T) { r.m.handleBatch(linkSrc, linkBatch(7, 4, 400)) }},
		{name: "Active: new epoch", from: active, want: LinkCatchingUp, vv: 100,
			event: func(r linkRig, _ *testing.T) {
				r.m.handleHeartbeat(linkSrc, &msg.Heartbeat{Time: 900, Epoch: 8})
			}},
		{name: "Active: a departed DC's final exceeds VV", from: active, want: LinkCatchingUp, vv: 100,
			event: func(r linkRig, _ *testing.T) {
				r.be.RaiseVV(2, 300)
				r.m.handleMembershipUpdate(netemu.NodeID{DC: 2}, msg.MembershipUpdate{View: msg.Membership{
					Epoch: 2, Status: []uint8{msg.DCActive, msg.DCActive, msg.DCLeft}, Final: vclock.VC{0, 0, 500},
				}})
			},
			also: func(r linkRig, t *testing.T, _ int) {
				if have := r.round(t).Have; have.Get(2) != 300 {
					t.Errorf("Have = %v, want the gap's floor 300 for the departed DC", have)
				}
			}},
		{name: "Idle: a departed DC's final exceeds VV", from: idle, want: LinkCatchingUp,
			event: func(r linkRig, _ *testing.T) {
				r.m.handleMembershipUpdate(netemu.NodeID{DC: 2}, msg.MembershipUpdate{View: msg.Membership{
					Epoch: 2, Status: []uint8{msg.DCActive, msg.DCActive, msg.DCLeft}, Final: vclock.VC{0, 0, 500},
				}})
			}},
		{name: "CatchingUp: sequenced batch extends the chain and applies", from: catchingUp, want: LinkCatchingUp, vv: 100,
			event: func(r linkRig, _ *testing.T) { r.m.handleBatch(linkSrc, linkBatch(7, 5, 500)) },
			also: func(r linkRig, t *testing.T, applied int) {
				appliedOne(r, t, applied) // installed on arrival, as on an active link
				r.link(1, func(st *inLink) {
					if st.chainBase != 3 || st.chainSeq != 5 || st.chainTS != 500 {
						t.Errorf("chain = (base %d, seq %d, ts %d), want (3, 5, 500)", st.chainBase, st.chainSeq, st.chainTS)
					}
				})
				if n := r.rounds(); n != 1 {
					t.Errorf("%d requests, want 1: the round is not quiet", n)
				}
			}},
		{name: "CatchingUp: discontinuity restarts the chain", from: catchingUp, want: LinkCatchingUp, vv: 100,
			event: func(r linkRig, _ *testing.T) { r.m.handleBatch(linkSrc, linkBatch(7, 7, 700)) },
			also: func(r linkRig, t *testing.T, _ int) {
				r.link(1, func(st *inLink) {
					if st.chainBase != 6 || st.chainSeq != 7 {
						t.Errorf("chain = (base %d, seq %d), want (6, 7)", st.chainBase, st.chainSeq)
					}
				})
			}},
		{name: "CatchingUp: sequenced message on a quiet round re-requests", from: catchingUp, want: LinkCatchingUp, vv: 100,
			event: func(r linkRig, _ *testing.T) {
				r.link(1, func(st *inLink) { st.reqAt = time.Now().Add(-2 * r.m.reRequest) })
				r.m.handleHeartbeat(linkSrc, &msg.Heartbeat{Time: 450, Epoch: 7, Seq: 4})
			},
			also: func(r linkRig, t *testing.T, _ int) {
				if n := r.rounds(); n != 2 {
					t.Errorf("%d requests, want the quiet round re-requested", n)
				}
				// The re-ask doubled the wait: the next one waits 2 × reRequest.
				for _, c := range []struct {
					quiet time.Duration
					want  int
				}{{3 * r.m.reRequest / 2, 2}, {5 * r.m.reRequest / 2, 3}} {
					r.link(1, func(st *inLink) { st.reqAt = time.Now().Add(-c.quiet) })
					r.m.handleHeartbeat(linkSrc, &msg.Heartbeat{Time: 450, Epoch: 7, Seq: 4})
					if n := r.rounds(); n != c.want {
						t.Errorf("quiet %v after the re-ask: %d requests, want %d", c.quiet, n, c.want)
					}
				}
			}},
		{name: "CatchingUp: chunk of the live round", from: catchingUp, want: LinkCatchingUp, vv: 100,
			event: func(r linkRig, t *testing.T) {
				r.m.handleCatchUpReply(linkSrc, msg.CatchUpReply{
					ReqID: r.round(t).ReqID, Chunk: 1, Versions: []*item.Version{ver(1, 200, "b")},
				})
			},
			also: func(r linkRig, t *testing.T, applied int) {
				appliedOne(r, t, applied)
				out := r.tr.msgs(linkSrc)
				if ack, ok := out[len(out)-1].(msg.CatchUpAck); !ok || ack.Chunk != 1 {
					t.Errorf("last message on the link = %#v, want the chunk's ack", out[len(out)-1])
				}
				r.link(1, func(st *inLink) {
					if st.nextChunk != 2 {
						t.Errorf("next chunk %d, want 2: the contiguous chunk counted", st.nextChunk)
					}
				})
			}},
		{name: "CatchingUp: Done, a chunk missing", from: catchingUp, want: LinkCatchingUp, vv: 100,
			event: func(r linkRig, t *testing.T) {
				// Chunk 1 is lost; the Done counts it.
				r.m.handleCatchUpReply(linkSrc, msg.CatchUpReply{
					ReqID: r.round(t).ReqID, Chunk: 1, Done: true, ResumeEpoch: 7, ResumeSeq: 4, Through: 400,
				})
			},
			also: func(r linkRig, t *testing.T, _ int) {
				if n := r.rounds(); n != 2 || r.round(t).From != 100 {
					t.Errorf("%d requests, newest from %d; want a second round from the unraised floor 100", n, r.round(t).From)
				}
			}},
		{name: "CatchingUp: Done, the chain connects", from: catchingUp, want: LinkActive, vv: 500,
			event: func(r linkRig, t *testing.T) {
				r.m.handleBatch(linkSrc, linkBatch(7, 5, 500)) // applied; chain tip
				done(r, t, 4, 400)
			},
			also: func(r linkRig, t *testing.T, applied int) {
				appliedOne(r, t, applied) // the chain tip's batch, applied before the Done raised over it
			}},
		{name: "CatchingUp: Done, no chain", from: active, want: LinkActive, vv: 150,
			event: func(r linkRig, t *testing.T) {
				// A gap-fill round opens on a healthy link: no message started a chain.
				r.m.handleMembershipUpdate(netemu.NodeID{DC: 2}, msg.MembershipUpdate{View: msg.Membership{
					Epoch: 2, Status: []uint8{msg.DCActive, msg.DCActive, msg.DCLeft}, Final: vclock.VC{0, 0, 500},
				}})
				done(r, t, 1, 150)
			}},
		{name: "CatchingUp: Done, a hole remains", from: catchingUp, want: LinkCatchingUp, vv: 400,
			event: func(r linkRig, t *testing.T) {
				r.m.handleBatch(linkSrc, linkBatch(7, 7, 700)) // seq 5-6 lost too
				done(r, t, 4, 400)
			},
			also: func(r linkRig, t *testing.T, _ int) {
				if n := r.rounds(); n != 2 || r.round(t).From != 400 {
					t.Errorf("%d requests, newest from %d; want a second round from Through", n, r.round(t).From)
				}
			}},
		{name: "Idle: stale chunk", from: idle, want: LinkIdle, event: stale(false), also: appliedOne},
		{name: "Active: stale Done", from: active, want: LinkActive, vv: 100, event: stale(true), also: appliedOne},
		{name: "CatchingUp: stale chunk", from: catchingUp, want: LinkCatchingUp, vv: 100, event: stale(false), also: appliedOne},
		{name: "CatchingUp: stale Done", from: catchingUp, want: LinkCatchingUp, vv: 100, event: stale(true),
			also: func(r linkRig, t *testing.T, applied int) {
				appliedOne(r, t, applied)
				if n := r.rounds(); n != 1 {
					t.Errorf("%d requests, want the live round left alone", n)
				}
			}},
		{name: "CatchingUp: the DC is marked Left", from: catchingUp, want: LinkIdle, vv: 100,
			event: func(r linkRig, _ *testing.T) {
				r.m.handleBatch(linkSrc, linkBatch(7, 5, 420, 500)) // applied on arrival
				leave1(r, 450)
			},
			also: func(r linkRig, t *testing.T, applied int) {
				appliedOne(r, t, applied) // 420 stays, the seal drops 500 past the final
				// VV[1] = 100 is short of the final, so the gap-fill row fires
				// on the surviving link.
				if got := r.stored(2); got != LinkCatchingUp {
					t.Errorf("link from dc2 = %v, want catching-up (gap-fill toward the final)", got)
				}
			}},
		{name: "Left, Active: next batch raises, capped at the final", from: active, want: LinkActive, vv: 150,
			event: func(r linkRig, _ *testing.T) {
				leave1(r, 150)
				r.m.handleBatch(linkSrc, linkBatch(7, 2, 200))
			}},
		{name: "Left, Active: a hole raises nothing", from: active, want: LinkActive, vv: 100,
			event: func(r linkRig, _ *testing.T) {
				leave1(r, 450)
				r.m.handleBatch(linkSrc, linkBatch(7, 4, 400))
			},
			also: func(r linkRig, t *testing.T, _ int) {
				if n := r.rounds(); n != 0 {
					t.Errorf("%d requests toward the departed DC, want none", n)
				}
			}},
		{name: "Left, cancelled round: a straggler raises nothing", from: catchingUp, want: LinkIdle, vv: 100,
			event: func(r linkRig, _ *testing.T) {
				leave1(r, 450)
				r.m.handleBatch(linkSrc, linkBatch(7, 5, 420))
			},
			also: func(r linkRig, t *testing.T, _ int) {
				if n := r.rounds(); n != 1 {
					t.Errorf("%d requests toward the departed DC, want only the cancelled round", n)
				}
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m, tr, be := newTestManager(t, Config{ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3})
			r := linkRig{m, tr, be}
			row.from(r)
			applied := be.appliedCount()
			row.event(r, t)
			if got := r.stored(1); got != row.want {
				t.Errorf("stored state = %v, want %v", got, row.want)
			}
			catching := 0
			for dc := range m.in {
				if r.stored(dc) == LinkCatchingUp {
					catching++
				}
			}
			if got := int(m.activeIn.Load()); got != catching {
				t.Errorf("activeIn = %d, want %d (the links stored as catching up)", got, catching)
			}
			if got := be.VVEntry(1); got != row.vv {
				t.Errorf("VV[1] = %d, want %d", got, row.vv)
			}
			if row.also != nil {
				row.also(r, t, applied)
			}
		})
	}
}

// TestSlowLiveStreamCompletesInOneRound: a live stream whose chunks arrive
// slowly, each just inside the re-request interval while the sender's
// heartbeats keep coming, is never superseded (every chunk refreshes the
// quiet clock), so it completes in one round without any mid-stream
// progress claim.
func TestSlowLiveStreamCompletesInOneRound(t *testing.T) {
	m, tr, be := newTestManager(t, Config{ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3})
	r := linkRig{m, tr, be}
	m.handleBatch(linkSrc, linkBatch(7, 1, 100))
	m.handleBatch(linkSrc, linkBatch(7, 4, 400)) // seq 2-3 lost: the round opens
	reqID := r.round(t).ReqID
	const chunks = 8
	for c := uint64(1); c <= chunks; c++ {
		// The stream stalls for 0.9 × the re-request interval, and a
		// heartbeat arrives during the stall.
		r.link(1, func(st *inLink) { st.reqAt = time.Now().Add(-9 * m.reRequest / 10) })
		m.handleHeartbeat(linkSrc, &msg.Heartbeat{Time: 400, Epoch: 7, Seq: 4})
		m.handleCatchUpReply(linkSrc, msg.CatchUpReply{ReqID: reqID, Chunk: c,
			Versions: []*item.Version{ver(1, vclock.Timestamp(100+30*c), "k")}})
	}
	m.handleCatchUpReply(linkSrc, msg.CatchUpReply{
		ReqID: reqID, Chunk: chunks, Done: true, ResumeEpoch: 7, ResumeSeq: 4, Through: 400,
	})
	if st := m.Stats(); st.Requested != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want one round requested and completed", st)
	}
	if got := be.VVEntry(1); got != 400 {
		t.Fatalf("VV[1] = %d, want the round's Through 400", got)
	}
	if got := r.stored(1); got != LinkActive {
		t.Fatalf("link = %v, want active", got)
	}
}

// TestCatchUpSlowServeCompletesAfterBackoff: a sender whose every serve
// answers 2.5 × reRequest after the request, while its heartbeats keep
// arriving, is superseded by the quiet re-ask only until the doubling wait
// outlasts it: round 1 gives up at 1 × reRequest, round 2 at 2 ×, and round
// 3 (wait 4 ×) completes. A fixed wait supersedes every round before its
// first chunk — a livelock.
func TestCatchUpSlowServeCompletesAfterBackoff(t *testing.T) {
	m, tr, be := newTestManager(t, Config{ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3})
	r := linkRig{m, tr, be}
	m.handleBatch(linkSrc, linkBatch(7, 1, 100))
	m.handleBatch(linkSrc, linkBatch(7, 4, 400)) // seq 2-3 lost: the round opens
	for round := 1; ; round++ {
		if round > 3 {
			t.Fatalf("round %d opened: each slow serve was superseded before it answered (stats %+v)", round, m.Stats())
		}
		reqID := r.round(t).ReqID
		superseded := false
		// Heartbeats at 0.6, 1.2, 1.8 and 2.4 × reRequest after the request.
		for k := 1; k <= 4 && !superseded; k++ {
			r.link(1, func(st *inLink) { st.reqAt = time.Now().Add(-time.Duration(6*k) * m.reRequest / 10) })
			m.handleHeartbeat(linkSrc, &msg.Heartbeat{Time: 400, Epoch: 7, Seq: 4})
			superseded = r.round(t).ReqID != reqID
		}
		if superseded {
			continue
		}
		// The serve answers at 2.5 × reRequest: one chunk, then the Done.
		r.link(1, func(st *inLink) { st.reqAt = time.Now().Add(-5 * m.reRequest / 2) })
		m.handleCatchUpReply(linkSrc, msg.CatchUpReply{ReqID: reqID, Chunk: 1,
			Versions: []*item.Version{ver(1, 200, "k")}})
		m.handleCatchUpReply(linkSrc, msg.CatchUpReply{
			ReqID: reqID, Chunk: 1, Done: true, ResumeEpoch: 7, ResumeSeq: 4, Through: 400,
		})
		break
	}
	if st := m.Stats(); st.Requested > 3 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want at most three rounds requested and one completed", st)
	}
	if got := be.VVEntry(1); got != 400 {
		t.Fatalf("VV[1] = %d, want the round's Through 400", got)
	}
	if got := r.stored(1); got != LinkActive {
		t.Fatalf("link = %v, want active", got)
	}
}
