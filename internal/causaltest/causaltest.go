// Package causaltest provides a model-based causal-consistency checker used
// by the integration and stress tests. Independently of the protocol under
// test, it tracks the *real* transitive dependency set of every written
// version on the test side; a checked session then asserts that every GET
// returns a version at least as new (in last-writer-wins order) as every
// version the client causally depends on, and that RO-TX results form causal
// snapshots. Because the protocols guarantee that causality is consistent
// with the LWW order (Proposition 2 of the paper), any causality violation
// surfaces as an LWW regression.
package causaltest

import (
	"fmt"
	"sync"

	"repro/internal/client"
	"repro/internal/vclock"
)

// VersionID identifies a written version.
type VersionID struct {
	UpdateTime vclock.Timestamp
	SrcReplica int
}

// zero reports whether the id is the placeholder "no version".
func (v VersionID) zero() bool { return v.UpdateTime == 0 }

// NewerOrEqual is the LWW order of the protocols: higher timestamp wins,
// ties go to the lowest source replica. A head NewerOrEqual to a write is
// that write, or one that supersedes it.
func (v VersionID) NewerOrEqual(o VersionID) bool {
	if v == o {
		return true
	}
	if v.UpdateTime != o.UpdateTime {
		return v.UpdateTime > o.UpdateTime
	}
	return v.SrcReplica < o.SrcReplica
}

type writeKey struct {
	key string
	id  VersionID
}

// Registry records, for every version written through a checked session, the
// exact dependency map (key → newest version the writer causally depended
// on) captured at write time. One registry is shared by all sessions of a
// test.
type Registry struct {
	mu  sync.Mutex
	ctx map[writeKey]map[string]VersionID

	violMu     sync.Mutex
	violations []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ctx: make(map[writeKey]map[string]VersionID)}
}

func (r *Registry) record(key string, id VersionID, deps map[string]VersionID) {
	cp := make(map[string]VersionID, len(deps))
	for k, v := range deps {
		cp[k] = v
	}
	r.mu.Lock()
	r.ctx[writeKey{key, id}] = cp
	r.mu.Unlock()
}

func (r *Registry) contextOf(key string, id VersionID) map[string]VersionID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ctx[writeKey{key, id}] // read-only after record
}

func (r *Registry) violate(format string, args ...any) {
	r.violMu.Lock()
	defer r.violMu.Unlock()
	if len(r.violations) < 50 { // cap the report size
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// Violations returns the recorded causality violations.
func (r *Registry) Violations() []string {
	r.violMu.Lock()
	defer r.violMu.Unlock()
	out := make([]string, len(r.violations))
	copy(out, r.violations)
	return out
}

// Session wraps a client session with causality checking. It must be used by
// a single goroutine, like the underlying session.
type Session struct {
	reg  *Registry
	s    *client.Session
	name string
	// deps is the client's real causal lower bound per key: any later read
	// of k must return a version >= deps[k] in LWW order.
	deps map[string]VersionID
}

// NewSession wraps s. The name labels violations in reports.
func NewSession(reg *Registry, s *client.Session, name string) *Session {
	return &Session{reg: reg, s: s, name: name, deps: make(map[string]VersionID)}
}

// Unwrap returns the underlying session.
func (c *Session) Unwrap() *client.Session { return c.s }

// Get reads key and checks the result against the client's causal history.
func (c *Session) Get(key string) ([]byte, error) {
	reply, err := c.s.GetReply(key)
	if err != nil {
		return nil, err
	}
	id := VersionID{reply.UpdateTime, reply.SrcReplica}
	if !reply.Exists {
		id = VersionID{}
	}
	c.checkRead("GET", key, id)
	c.absorb(key, id)
	return reply.Value, nil
}

// Put writes key and registers the new version's real dependency context.
func (c *Session) Put(key string, value []byte) error {
	_, err := c.PutMeta(key, value)
	return err
}

// PutMeta is Put returning the new version's identity.
func (c *Session) PutMeta(key string, value []byte) (VersionID, error) {
	ut, dc, err := c.s.PutMeta(key, value)
	if err != nil {
		return VersionID{}, err
	}
	id := VersionID{ut, dc}
	c.reg.record(key, id, c.deps)
	c.deps[key] = maxID(c.deps[key], id)
	return id, nil
}

// ROTx reads keys transactionally, checking that reply i answers keys[i],
// the session guarantees and the causal-snapshot property. It returns the
// values in key order, as client.Session.ROTx does.
func (c *Session) ROTx(keys []string) ([][]byte, error) {
	replies, err := c.s.ROTxReplies(keys)
	if err != nil {
		return nil, err
	}
	if len(replies) != len(keys) {
		c.reg.violate("%s: RO-TX of %d keys returned %d replies", c.name, len(keys), len(replies))
	}
	returned := make(map[string]VersionID, len(replies))
	vals := make([][]byte, len(replies))
	for i, r := range replies {
		if i < len(keys) && r.Key != keys[i] {
			c.reg.violate("%s: RO-TX reply %d answers %q, but key %d is %q", c.name, i, r.Key, i, keys[i])
		}
		id := VersionID{r.UpdateTime, r.SrcReplica}
		if !r.Exists {
			id = VersionID{}
		} else {
			vals[i] = r.Value
		}
		returned[r.Key] = id
	}
	// Session guarantee per key.
	for k, id := range returned {
		c.checkRead("RO-TX", k, id)
	}
	// Causal snapshot: if the snapshot contains V and V really depends on
	// (k2, v2), then the version returned for k2 must be >= v2.
	for k, id := range returned {
		if id.zero() {
			continue
		}
		for k2, dep := range c.reg.contextOf(k, id) {
			got, inTx := returned[k2]
			if !inTx {
				continue
			}
			if got.zero() || !got.NewerOrEqual(dep) {
				c.reg.violate("%s: RO-TX snapshot broken: returned %s@%v which depends on %s@%v, but %s resolved to %v",
					c.name, k, id, k2, dep, k2, got)
			}
		}
	}
	for k, id := range returned {
		c.absorb(k, id)
	}
	return vals, nil
}

// checkRead asserts the session guarantee: the returned version must not be
// LWW-older than anything the client causally depends on for that key.
func (c *Session) checkRead(op, key string, got VersionID) {
	want, ok := c.deps[key]
	if !ok || want.zero() {
		return
	}
	if got.zero() {
		c.reg.violate("%s: %s(%s) returned no version but client depends on %v", c.name, op, key, want)
		return
	}
	if !got.NewerOrEqual(want) {
		c.reg.violate("%s: %s(%s) returned %v, causally older than required %v", c.name, op, key, got, want)
	}
}

// absorb merges a read version and its real transitive context into the
// client's dependency map.
func (c *Session) absorb(key string, id VersionID) {
	if id.zero() {
		return
	}
	c.deps[key] = maxID(c.deps[key], id)
	for k, dep := range c.reg.contextOf(key, id) {
		c.deps[k] = maxID(c.deps[k], dep)
	}
}

func maxID(a, b VersionID) VersionID {
	if a.zero() {
		return b
	}
	if b.zero() {
		return a
	}
	if a.NewerOrEqual(b) {
		return a
	}
	return b
}
