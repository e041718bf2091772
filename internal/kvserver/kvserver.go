// Package kvserver exposes a running occ.Store over a plain text TCP
// protocol, one listener per data center, so external clients (telnet, the
// pocccli binary, or any language) can use the store without linking Go
// code. Every connection gets its own client session bound to the
// listener's data center, matching the paper's model of clients attached to
// one DC.
//
// Protocol (one request per line, responses line-oriented):
//
//	PING                      -> PONG
//	PUT <key> <value>         -> OK
//	GET <key>                 -> VALUE <value> | NIL
//	TX <key> [key...]         -> TXVAL <key> <value> | TXNIL <key> (one per
//	                             key, any order) then TXEND
//	WHEREIS <key>             -> PARTITION <n> (the key's current owner —
//	                             slot-table routing after a reshard)
//	STATS                     -> STATS ops=<n> blocked=<n> ...
//	SPLIT <partition>         -> SPLITDONE <new-partition> (admin: grow every
//	                             DC by one partition server; half the donor's
//	                             hash slots move to it, history migrates,
//	                             routing flips — needs -max-partitions
//	                             headroom)
//	MOVESLOTS <to> <slot...>  -> MOVED <n> <to> (admin: reassign hash slots
//	                             to an existing partition, migrating their
//	                             history first)
//	SLOTS                     -> SLOTS epoch=<e> parts=<n> then one line
//	                             "SLOT <owner> <slots...>" per partition,
//	                             then SLOTEND (the current routing table;
//	                             epoch 0 = static hash layout)
//	JOIN                      -> JOINED <dc> <addr> (admin: grow the
//	                             deployment by one DC; the new DC boots,
//	                             catches up from its siblings' WALs, and
//	                             gets its own listener)
//	LEAVE <dc>                -> LEFT <dc> (admin: remove a DC; its history
//	                             stays on the survivors)
//	EVICT <dc>                -> EVICTED <dc> (admin: forcibly remove a
//	                             crashed DC; the survivors agree on its final
//	                             replicated timestamps and resume)
//	QUIT                      -> BYE (server closes the connection)
//
// Errors are reported as "ERR <message>". Keys must not contain spaces;
// values may (everything after the key is the value).
package kvserver

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	occ "repro"
	"repro/internal/wire"
)

// Server serves a store over TCP.
type Server struct {
	store    *occ.Store
	host     string
	basePort int

	mu        sync.Mutex
	listeners []net.Listener // indexed by DC; nil for departed DCs
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// Serve binds one listener per data center on consecutive ports starting at
// basePort ("host:0" semantics are supported by passing basePort 0, in which
// case each DC gets an ephemeral port). It returns once all listeners are
// bound; handling runs in the background until Close. Data centers joined
// later (the JOIN admin command, or Store.AddDataCenter followed by
// ServeDC) get the next consecutive port.
func Serve(store *occ.Store, host string, basePort int) (*Server, error) {
	s := &Server{store: store, host: host, basePort: basePort, conns: make(map[net.Conn]struct{})}
	for dc := 0; dc < store.DataCenters(); dc++ {
		if _, err := s.ServeDC(dc); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// ServeDC binds the listener for one data center (basePort+dc, or an
// ephemeral port with basePort 0) and starts accepting connections on it.
// It returns the bound address, and is idempotent: a DC that is already
// served keeps its listener.
func (s *Server) ServeDC(dc int) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", errors.New("kvserver: server closed")
	}
	for len(s.listeners) <= dc {
		s.listeners = append(s.listeners, nil)
	}
	if l := s.listeners[dc]; l != nil {
		return l.Addr().String(), nil
	}
	port := 0
	if s.basePort != 0 {
		port = s.basePort + dc
	}
	l, err := net.Listen("tcp", fmt.Sprintf("%s:%d", s.host, port))
	if err != nil {
		return "", fmt.Errorf("kvserver: bind dc%d: %w", dc, err)
	}
	s.listeners[dc] = l
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(dc, l)
	}()
	return l.Addr().String(), nil
}

// Addr returns the listen address for a data center ("" for a departed or
// unserved DC).
func (s *Server) Addr(dc int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if dc < 0 || dc >= len(s.listeners) || s.listeners[dc] == nil {
		return ""
	}
	return s.listeners[dc].Addr().String()
}

// Close stops the listeners and closes every open connection.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	listeners := append([]net.Listener(nil), s.listeners...)
	s.mu.Unlock()
	for _, l := range listeners {
		if l != nil {
			_ = l.Close()
		}
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop(dc int, l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(dc, conn)
		}()
	}
}

// maxTextLine bounds one text-protocol line. A longer line gets an "ERR too
// long" reply (and then loses the connection: the scanner cannot resync
// mid-token). Values beyond this belong on the binary front door, whose
// frames go up to wire.MaxFrontDoorFrame.
const maxTextLine = 1024 * 1024

func (s *Server) handleConn(dc int, conn net.Conn) {
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// Negotiate the protocol on the first byte: wire.FrontDoorMagic selects
	// the binary pipelined front door, anything else (printable ASCII) is a
	// legacy text-protocol line.
	br := bufio.NewReader(conn)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	if first[0] == wire.FrontDoorMagic {
		_, _ = br.ReadByte()
		s.handleBinaryConn(dc, conn, br)
		return
	}
	sess, err := s.store.Session(dc)
	w := bufio.NewWriter(conn)
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		_ = w.Flush()
		return
	}
	scanner := bufio.NewScanner(br)
	scanner.Buffer(make([]byte, 64*1024), maxTextLine)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		quit := s.handleLine(w, sess, line)
		if err := w.Flush(); err != nil {
			return
		}
		if quit {
			return
		}
	}
	// A line past maxTextLine used to kill the connection silently; tell the
	// client what happened before hanging up.
	if errors.Is(scanner.Err(), bufio.ErrTooLong) {
		fmt.Fprintln(w, "ERR too long")
		_ = w.Flush()
	}
}

// handleLine executes one protocol line; it returns true when the
// connection should close.
func (s *Server) handleLine(w *bufio.Writer, sess *occ.Session, line string) bool {
	cmd, rest, _ := strings.Cut(line, " ")
	switch strings.ToUpper(cmd) {
	case "PING":
		fmt.Fprintln(w, "PONG")
	case "PUT":
		key, value, ok := strings.Cut(rest, " ")
		if !ok || key == "" {
			fmt.Fprintln(w, "ERR usage: PUT <key> <value>")
			return false
		}
		if err := sess.PutOwned(key, []byte(value)); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		fmt.Fprintln(w, "OK")
	case "GET":
		key := strings.TrimSpace(rest)
		if key == "" || strings.ContainsRune(key, ' ') {
			fmt.Fprintln(w, "ERR usage: GET <key>")
			return false
		}
		v, err := sess.Get(key)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		if v == nil {
			fmt.Fprintln(w, "NIL")
		} else {
			fmt.Fprintf(w, "VALUE %s\n", v)
		}
	case "TX":
		keys := strings.Fields(rest)
		if len(keys) == 0 {
			fmt.Fprintln(w, "ERR usage: TX <key> [key...]")
			return false
		}
		vals, err := sess.ROTx(keys)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		for _, k := range keys {
			if vals[k] == nil {
				fmt.Fprintf(w, "TXNIL %s\n", k)
			} else {
				fmt.Fprintf(w, "TXVAL %s %s\n", k, vals[k])
			}
		}
		fmt.Fprintln(w, "TXEND")
	case "WHEREIS":
		key := strings.TrimSpace(rest)
		if key == "" {
			fmt.Fprintln(w, "ERR usage: WHEREIS <key>")
			return false
		}
		fmt.Fprintf(w, "PARTITION %d\n", s.store.PartitionOf(key))
	case "STATS":
		st := s.store.Stats()
		fmt.Fprintf(w, "STATS ops=%d blocked=%d block_prob=%.3e old_pct=%.3f unmerged_pct=%.3f keys=%d versions=%d messages=%d dcs=%d max_lag_ms=%.3f link_lag_ms=%s catchups=%d catchups_served=%d catchups_active=%d full_resyncs=%d links=%s gc_holdback_ms=%.3f fsyncs=%d commit_groups=%d wal_records=%d group_p50=%d group_max=%d ack_lag_mean_us=%.1f ack_lag_max_us=%.1f seek_hits=%d full_scans=%d parts_skipped=%d partitions=%d slot_epoch=%d\n",
			st.Operations, st.BlockedOperations, st.BlockingProbability,
			st.PercentOldReads, st.PercentUnmergedReads, st.Keys, st.Versions, s.store.Messages(),
			s.store.DataCenters(),
			float64(st.MaxReplicationLag())/float64(time.Millisecond),
			formatLinkLag(st.ReplicationLagPerLink),
			st.CatchUps, st.CatchUpsServed, st.CatchUpsActive,
			st.FullResyncs, formatLinkStates(st.LinkStates),
			float64(st.GCHoldbackAge)/float64(time.Millisecond),
			st.Fsyncs, st.CommitGroups, st.WALRecords, st.CommitGroupP50, st.CommitGroupMax,
			float64(st.AckToDurableMean)/float64(time.Microsecond),
			float64(st.AckToDurableMax)/float64(time.Microsecond),
			st.SeekHits, st.FullScans, st.PartsSkipped,
			st.Partitions, st.SlotEpoch)
	case "SPLIT":
		donor, err := strconv.Atoi(strings.TrimSpace(rest))
		if err != nil {
			fmt.Fprintln(w, "ERR usage: SPLIT <partition>")
			return false
		}
		np, err := s.store.SplitPartition(donor)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		fmt.Fprintf(w, "SPLITDONE %d\n", np)
	case "MOVESLOTS":
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			fmt.Fprintln(w, "ERR usage: MOVESLOTS <to> <slot> [slot...]")
			return false
		}
		to, err := strconv.Atoi(fields[0])
		if err != nil {
			fmt.Fprintln(w, "ERR usage: MOVESLOTS <to> <slot> [slot...]")
			return false
		}
		slots := make([]int, 0, len(fields)-1)
		for _, f := range fields[1:] {
			sl, err := strconv.Atoi(f)
			if err != nil {
				fmt.Fprintf(w, "ERR bad slot %q\n", f)
				return false
			}
			slots = append(slots, sl)
		}
		if err := s.store.MoveSlots(slots, to); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		fmt.Fprintf(w, "MOVED %d %d\n", len(slots), to)
	case "SLOTS":
		tbl := s.store.SlotTable()
		if tbl == nil {
			fmt.Fprintf(w, "SLOTS epoch=0 parts=%d\n", s.store.Partitions())
			fmt.Fprintln(w, "SLOTEND")
			return false
		}
		fmt.Fprintf(w, "SLOTS epoch=%d parts=%d\n", tbl.Epoch, tbl.Parts)
		for p := 0; p < tbl.Parts; p++ {
			owned := tbl.SlotsOwnedBy(p)
			var sb strings.Builder
			for _, sl := range owned {
				fmt.Fprintf(&sb, " %d", sl)
			}
			fmt.Fprintf(w, "SLOT %d%s\n", p, sb.String())
		}
		fmt.Fprintln(w, "SLOTEND")
	case "JOIN":
		dc, err := s.store.AddDataCenter()
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		if err := s.store.WaitForJoin(dc, time.Minute); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		addr, err := s.ServeDC(dc)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		fmt.Fprintf(w, "JOINED %d %s\n", dc, addr)
	case "LEAVE":
		dc, err := strconv.Atoi(strings.TrimSpace(rest))
		if err != nil {
			fmt.Fprintln(w, "ERR usage: LEAVE <dc>")
			return false
		}
		if err := s.store.RemoveDataCenter(dc); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		s.mu.Lock()
		if dc < len(s.listeners) && s.listeners[dc] != nil {
			_ = s.listeners[dc].Close()
			s.listeners[dc] = nil
		}
		s.mu.Unlock()
		fmt.Fprintf(w, "LEFT %d\n", dc)
	case "EVICT":
		dc, err := strconv.Atoi(strings.TrimSpace(rest))
		if err != nil {
			fmt.Fprintln(w, "ERR usage: EVICT <dc>")
			return false
		}
		if err := s.store.ForceRemoveDataCenter(dc, 0); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		s.mu.Lock()
		if dc < len(s.listeners) && s.listeners[dc] != nil {
			_ = s.listeners[dc].Close()
			s.listeners[dc] = nil
		}
		s.mu.Unlock()
		fmt.Fprintf(w, "EVICTED %d\n", dc)
	case "QUIT":
		fmt.Fprintln(w, "BYE")
		return true
	default:
		fmt.Fprintf(w, "ERR unknown command %q\n", cmd)
	}
	return false
}

// formatLinkLag renders the per-link lag matrix as "dst<src:ms" pairs for
// every distinct live link, e.g. "0<1:0.012,0<2:0.034,1<0:0.008". A "-"
// stands for a deployment with no remote links.
func formatLinkLag(lag [][]time.Duration) string {
	var sb strings.Builder
	for dst, row := range lag {
		for src, l := range row {
			if src == dst {
				continue
			}
			if sb.Len() > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d<%d:%.3f", dst, src, float64(l)/float64(time.Millisecond))
		}
	}
	if sb.Len() == 0 {
		return "-"
	}
	return sb.String()
}

// formatLinkStates renders the link-health matrix as "dst<src:state" pairs
// for every distinct link, e.g. "0<1:active,1<0:frozen". A "-" stands for a
// deployment with no remote links.
func formatLinkStates(states [][]string) string {
	var sb strings.Builder
	for dst, row := range states {
		for src, st := range row {
			if src == dst || st == "" || st == "self" {
				continue
			}
			if sb.Len() > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d<%d:%s", dst, src, st)
		}
	}
	if sb.Len() == 0 {
		return "-"
	}
	return sb.String()
}

// Client is a minimal client for the kvserver protocol, used by tests and
// cmd/pocccli.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
}

// Dial connects to a kvserver listener.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("kvserver: dial: %w", err)
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(req string) (string, error) {
	if _, err := fmt.Fprintf(c.conn, "%s\n", req); err != nil {
		return "", err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\n"), nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	resp, err := c.roundTrip("PING")
	if err != nil {
		return err
	}
	if resp != "PONG" {
		return fmt.Errorf("kvserver: unexpected ping reply %q", resp)
	}
	return nil
}

// Put writes a key.
func (c *Client) Put(key, value string) error {
	resp, err := c.roundTrip("PUT " + key + " " + value)
	if err != nil {
		return err
	}
	if resp != "OK" {
		return errors.New(resp)
	}
	return nil
}

// Get reads a key; ok is false when the key has no visible version.
func (c *Client) Get(key string) (value string, ok bool, err error) {
	resp, err := c.roundTrip("GET " + key)
	if err != nil {
		return "", false, err
	}
	switch {
	case resp == "NIL":
		return "", false, nil
	case strings.HasPrefix(resp, "VALUE "):
		return strings.TrimPrefix(resp, "VALUE "), true, nil
	default:
		return "", false, errors.New(resp)
	}
}

// Tx runs a read-only transaction; missing keys are absent from the map.
func (c *Client) Tx(keys ...string) (map[string]string, error) {
	if _, err := fmt.Fprintf(c.conn, "TX %s\n", strings.Join(keys, " ")); err != nil {
		return nil, err
	}
	out := make(map[string]string, len(keys))
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "TXEND":
			return out, nil
		case strings.HasPrefix(line, "TXVAL "):
			kv := strings.TrimPrefix(line, "TXVAL ")
			k, v, _ := strings.Cut(kv, " ")
			out[k] = v
		case strings.HasPrefix(line, "TXNIL "):
			// missing key: leave it out of the map
		default:
			return nil, errors.New(line)
		}
	}
}

// Stats returns the raw stats line.
func (c *Client) Stats() (string, error) { return c.roundTrip("STATS") }

// Join grows the deployment by one data center and returns its id and
// listen address. It blocks until the new DC has bootstrapped.
func (c *Client) Join() (dc int, addr string, err error) {
	resp, err := c.roundTrip("JOIN")
	if err != nil {
		return 0, "", err
	}
	var rest string
	ok := strings.HasPrefix(resp, "JOINED ")
	if ok {
		rest = strings.TrimPrefix(resp, "JOINED ")
		dcStr, addrStr, found := strings.Cut(rest, " ")
		if found {
			if dc, err = strconv.Atoi(dcStr); err == nil {
				return dc, addrStr, nil
			}
		}
	}
	return 0, "", errors.New(resp)
}

// Leave removes a data center from the deployment.
func (c *Client) Leave(dc int) error {
	resp, err := c.roundTrip(fmt.Sprintf("LEAVE %d", dc))
	if err != nil {
		return err
	}
	if resp != fmt.Sprintf("LEFT %d", dc) {
		return errors.New(resp)
	}
	return nil
}

// Evict forcibly removes a crashed data center: the survivors agree on its
// final replicated timestamps and drop it from the membership.
func (c *Client) Evict(dc int) error {
	resp, err := c.roundTrip(fmt.Sprintf("EVICT %d", dc))
	if err != nil {
		return err
	}
	if resp != fmt.Sprintf("EVICTED %d", dc) {
		return errors.New(resp)
	}
	return nil
}
