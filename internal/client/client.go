// Package client implements the POCC client session of Algorithm 1. A
// session maintains a dependency vector DV (everything the client's writes
// depend on) and a read dependency vector RDV (the dependencies of everything
// the client has read) and attaches them to every operation, providing the
// "cheap dependency meta-data" that lets servers resolve dependencies lazily.
//
// Sessions also implement HA-POCC's recovery (§III-B): when the server closes
// the session because a blocked request exceeded the block timeout, the
// session re-initializes itself in pessimistic mode (losing its optimistic
// dependency state, exactly as a cross-DC failover would), and is promoted
// back to optimistic once the local server stops suspecting a partition.
package client

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/vclock"
)

// ErrNoDataCenter is returned by operations on a session whose data center
// has left the deployment (cluster.RemoveDC): the router no longer resolves
// a server for it. The condition is permanent — open a session against a
// surviving DC instead.
var ErrNoDataCenter = errors.New("client: session's data center left the deployment")

// Slot-epoch retry pacing. While the cluster reshards (SplitPartition /
// MoveSlots), the old owner of a moved slot rejects operations with
// core.ErrWrongSlotEpoch until cluster routing flips to the new owner. The
// session retries with a fresh route resolution each attempt, so it lands on
// the new owner automatically once the flip happens; Config.SlotRetryBudget
// bounds how long a session camps on a reshard that never completes.
const slotRetryDelay = 25 * time.Millisecond

// Router maps keys to the partition servers of one data center.
type Router interface {
	// ServerFor returns the server responsible for key.
	ServerFor(key string) *core.Server
	// Coordinator returns the server the session is attached to (transaction
	// coordinator, §II-C).
	Coordinator() *core.Server
	// PartitionOf returns the partition index of key.
	PartitionOf(key string) int
}

// Config parameterizes a Session.
type Config struct {
	// Router locates the client's local (same-DC) servers.
	Router Router
	// NumDCs sizes the dependency vectors.
	NumDCs int
	// Mode is the session's starting protocol. Defaults to Optimistic.
	Mode core.Mode
	// AutoFallback enables HA-POCC session recovery: on ErrSessionClosed the
	// session re-initializes pessimistically and retries; it promotes back
	// to optimistic when the coordinator stops suspecting a partition.
	AutoFallback bool
	// SlotRetryBudget bounds how long one operation keeps retrying through
	// core.ErrWrongSlotEpoch while a reshard migrates its key's slot. It
	// must exceed the deployment's reshard drain bound, or a session parked
	// on a fenced slot surfaces the error for a migration that completes
	// moments later. NewSession rejects a non-positive budget; the cluster
	// passes twice its drain bound.
	SlotRetryBudget time.Duration
}

// Session is a client session. A session must be used by one goroutine at a
// time for its operations to form a single thread of execution; the struct is
// nevertheless internally synchronized so monitoring code may inspect it.
type Session struct {
	cfg Config

	mu   sync.Mutex
	mode core.Mode
	dv   vclock.VC // DV_c: dependencies of the client's writes
	rdv  vclock.VC // RDV_c: dependencies of the client's reads

	// opScratch is the RDV copy handed to the server for one operation.
	// Servers only read it (and never retain it past the call), and a
	// session runs one operation at a time, so the buffer is reused across
	// operations instead of cloning the RDV per request.
	opScratch vclock.VC
	// txScratch is the reply buffer the coordinator's fan-in fills for one
	// ROTx (core.Server.ROTxAppend). The values ROTx returns are copied out
	// of it, so the buffer is reused, cleared after each transaction so that
	// it pins no version past the call.
	txScratch []msg.ItemReply

	fallbacks  uint64 // times the session fell back to pessimistic
	promotions uint64 // times it was promoted back to optimistic
}

// NewSession opens a session against a data center.
func NewSession(cfg Config) (*Session, error) {
	if cfg.Router == nil {
		return nil, errors.New("client: Router is required")
	}
	if cfg.NumDCs < 1 {
		return nil, errors.New("client: NumDCs must be positive")
	}
	if cfg.SlotRetryBudget <= 0 {
		return nil, errors.New("client: SlotRetryBudget must be positive")
	}
	if cfg.Mode == 0 {
		cfg.Mode = core.Optimistic
	}
	return &Session{
		cfg:  cfg,
		mode: cfg.Mode,
		dv:   vclock.New(cfg.NumDCs),
		rdv:  vclock.New(cfg.NumDCs),
	}, nil
}

// Mode returns the session's current protocol mode.
func (s *Session) Mode() core.Mode {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mode
}

// Fallbacks returns how many times the session fell back to the pessimistic
// protocol.
func (s *Session) Fallbacks() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fallbacks
}

// Promotions returns how many times the session was promoted back to the
// optimistic protocol.
func (s *Session) Promotions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promotions
}

// DV returns a copy of the session's dependency vector (for tests).
func (s *Session) DV() vclock.VC {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dv.Clone()
}

// RDV returns a copy of the session's read dependency vector (for tests).
func (s *Session) RDV() vclock.VC {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rdv.Clone()
}

// Get reads key (Algorithm 1, lines 1-8).
func (s *Session) Get(key string) ([]byte, error) {
	reply, err := s.getReply(key)
	if err != nil {
		return nil, err
	}
	return reply.Value, nil
}

// GetReply reads key and returns the full reply including causal metadata.
func (s *Session) GetReply(key string) (msg.ItemReply, error) {
	return s.getReply(key)
}

func (s *Session) getReply(key string) (msg.ItemReply, error) {
	var slotDeadline time.Time
	for {
		// Resolved inside the loop: a slot-epoch rejection means the key's
		// slot moved, and the router re-resolves to the new owner.
		srv := s.cfg.Router.ServerFor(key)
		if srv == nil {
			return msg.ItemReply{}, ErrNoDataCenter
		}
		mode, rdv := s.opContext()
		reply, err := srv.Get(key, rdv, mode)
		if err != nil {
			if s.handleSessionError(err) {
				continue
			}
			if s.handleSlotEpoch(err, &slotDeadline) {
				continue
			}
			return msg.ItemReply{}, err
		}
		if reply.Exists {
			s.trackRead(reply)
		}
		s.maybePromote()
		return reply, nil
	}
}

// Put writes key (Algorithm 1, lines 9-13). Key and value are borrowed: the
// server copies them into the new version (core.Server.Put), so the caller
// may reuse its buffers as soon as Put returns.
func (s *Session) Put(key string, value []byte) error {
	_, _, err := s.PutMeta(key, value)
	return err
}

// PutMeta is Put returning the new version's identity (update time and source
// replica), which test checkers use to track real dependencies. It borrows
// key and value as Put does.
func (s *Session) PutMeta(key string, value []byte) (vclock.Timestamp, int, error) {
	var slotDeadline time.Time
	for {
		srv := s.cfg.Router.ServerFor(key)
		if srv == nil {
			return 0, 0, ErrNoDataCenter
		}
		s.mu.Lock()
		mode := s.mode
		// Scratch, as for a GET: the server copies dv into the new version.
		s.opScratch = s.opScratch.CopyFrom(s.dv)
		dv := s.opScratch
		s.mu.Unlock()
		ut, err := srv.Put(key, value, dv, mode)
		if err != nil {
			if s.handleSessionError(err) {
				continue
			}
			if s.handleSlotEpoch(err, &slotDeadline) {
				continue
			}
			return 0, 0, err
		}
		dc := srv.ID().DC
		s.mu.Lock()
		if ut > s.dv[dc] {
			s.dv[dc] = ut // track the dependency on the new write
		}
		s.mu.Unlock()
		s.maybePromote()
		return ut, dc, nil
	}
}

// ROTx executes a causally consistent read-only transaction (Algorithm 1,
// lines 14-20) and returns the read values in key order: vals[i] answers
// keys[i], and is nil when that key has no visible version, as Get's is. The
// slice is freshly allocated and the caller's.
func (s *Session) ROTx(keys []string) ([][]byte, error) {
	replies, err := s.rotx(s.txScratch, keys)
	var vals [][]byte
	if err == nil {
		vals = make([][]byte, len(replies))
		for i, r := range replies {
			if r.Exists {
				vals[i] = r.Value
			}
		}
		s.txScratch = replies[:0]
	}
	// Cleared to its capacity: a failed attempt may have gathered replies
	// past the length of the one that succeeded.
	clear(s.txScratch[:cap(s.txScratch)])
	return vals, err
}

// ROTxReplies is ROTx returning full replies including causal metadata, in
// key order, in a slice the caller owns.
func (s *Session) ROTxReplies(keys []string) ([]msg.ItemReply, error) {
	return s.rotx(nil, keys)
}

// rotx runs the transaction, retrying it through a session recovery or a
// reshard, with the replies gathered into dst[:0] (grown when short).
func (s *Session) rotx(dst []msg.ItemReply, keys []string) ([]msg.ItemReply, error) {
	var slotDeadline time.Time
	for {
		// Coordinator and the per-key slicing function are resolved per
		// attempt: mid-reshard a slice can land on a partition that no longer
		// owns the key (ErrWrongSlotEpoch), and the retry re-slices the
		// transaction under the refreshed routing table.
		coord := s.cfg.Router.Coordinator()
		if coord == nil {
			return nil, ErrNoDataCenter
		}
		// The snapshot must include everything the client has read AND
		// written (Proposition 4 of the paper assumes the client's writes are
		// in the snapshot): send max(RDV, DV), which covers the writes the
		// plain RDV of Algorithm 1 line 15 would miss.
		s.mu.Lock()
		mode := s.mode
		s.opScratch = vclock.MaxInto(s.opScratch, s.rdv, s.dv)
		rdv := s.opScratch
		s.mu.Unlock()
		replies, err := coord.ROTxAppend(dst, keys, rdv, mode, s.cfg.Router.PartitionOf)
		if err != nil {
			if s.handleSessionError(err) {
				continue
			}
			if s.handleSlotEpoch(err, &slotDeadline) {
				continue
			}
			return nil, err
		}
		for _, r := range replies {
			if r.Exists {
				s.trackRead(r) // "read d as if it was the result of a GET"
			}
		}
		s.maybePromote()
		return replies, nil
	}
}

// opContext snapshots the mode and RDV for one operation. The returned
// vector is the session's reusable scratch buffer: valid until the next
// operation starts.
func (s *Session) opContext() (core.Mode, vclock.VC) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opScratch = s.opScratch.CopyFrom(s.rdv)
	return s.mode, s.opScratch
}

// trackRead applies Algorithm 1 lines 4-6: merge the returned item's
// dependencies into RDV and DV, then record the direct dependency on the
// item itself in DV.
func (s *Session) trackRead(r msg.ItemReply) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rdv.MaxInPlace(r.Deps)
	s.dv.MaxInPlace(s.rdv)
	if r.SrcReplica >= 0 && r.SrcReplica < len(s.dv) && r.UpdateTime > s.dv[r.SrcReplica] {
		s.dv[r.SrcReplica] = r.UpdateTime
	}
}

// handleSessionError reports whether the operation should be retried after a
// session re-initialization. Only ErrSessionClosed with AutoFallback enabled
// triggers recovery: the session drops its optimistic dependency state and
// continues pessimistically (§III-B).
func (s *Session) handleSessionError(err error) bool {
	if !s.cfg.AutoFallback || !errors.Is(err, core.ErrSessionClosed) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mode = core.Pessimistic
	s.dv = vclock.New(s.cfg.NumDCs)
	s.rdv = vclock.New(s.cfg.NumDCs)
	s.fallbacks++
	return true
}

// handleSlotEpoch reports whether the operation should be retried after a
// routing refresh. It pauses briefly so the retry loop does not spin while a
// reshard drains, and gives up once the operation's budget is exhausted (the
// caller then surfaces ErrWrongSlotEpoch — the write was never accepted, so
// failing is safe). deadline is per operation, armed on the first rejection.
func (s *Session) handleSlotEpoch(err error, deadline *time.Time) bool {
	if !errors.Is(err, core.ErrWrongSlotEpoch) {
		return false
	}
	if deadline.IsZero() {
		*deadline = time.Now().Add(s.cfg.SlotRetryBudget)
	} else if time.Now().After(*deadline) {
		return false
	}
	time.Sleep(slotRetryDelay)
	return true
}

// maybePromote switches a fallen-back session to optimistic again once the
// coordinator no longer suspects a partition.
func (s *Session) maybePromote() {
	if !s.cfg.AutoFallback || s.cfg.Mode != core.Optimistic {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mode != core.Pessimistic {
		return
	}
	coord := s.cfg.Router.Coordinator()
	if coord == nil {
		return
	}
	if !coord.Suspected() {
		// Promotion re-initializes the session like fallback does: the
		// pessimistic dependency state is safe to carry forward (it is
		// stable), so it is kept.
		s.mode = core.Optimistic
		s.promotions++
	}
}
