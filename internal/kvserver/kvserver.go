// Package kvserver exposes a running occ.Store over TCP, one listener per
// data center, so external clients (internal/client's pool, telnet, or any
// language) can use the store without linking Go code. Every session gets
// its own client session bound to the listener's data center, matching the
// paper's model of clients attached to one DC.
//
// A listener speaks the front-door protocol in both of its encodings
// (internal/wire): binary frames, pipelined and multiplexed (frontdoor.go),
// and text lines, one request at a time. The first byte of a connection
// selects the encoding; after that each socket runs one loop — decode a
// wire.FrontDoorRequest, execute it, encode the wire.FrontDoorResponse — and
// both loops call the same execute. The data commands (PING, PUT, GET, TX,
// STATS, QUIT) are documented with the text encoding in internal/wire; the
// admin commands below are lines this package interprets, typed as they are
// on a text connection or carried verbatim in an FDAdmin frame:
//
//	WHEREIS <key>             -> PARTITION <n> (the key's current owner:
//	                             the partition whose SLOT line lists the
//	                             key's slot)
//	SPLIT <partition>         -> SPLITDONE <new-partition> (grow every DC by
//	                             one partition server; half the donor's hash
//	                             slots move to it, history migrates, routing
//	                             flips — needs -max-partitions headroom)
//	MOVESLOTS <to> <slot...>  -> MOVED <n> <to> (reassign hash slots to an
//	                             existing partition, migrating their history
//	                             first)
//	SLOTS                     -> SLOTS epoch=<e> parts=<n> then one line
//	                             "SLOT <owner> <slots...>" per partition,
//	                             then SLOTEND (the current routing table;
//	                             epoch 0 = slot s owned by s mod <n>)
//	JOIN                      -> JOINED <dc> <addr> (grow the deployment by
//	                             one DC; the new DC boots, catches up from
//	                             its siblings' WALs, and gets its own
//	                             listener)
//	LEAVE <dc>                -> LEFT <dc> (remove a DC; its history stays on
//	                             the survivors)
//	EVICT <dc>                -> EVICTED <dc> (forcibly remove a crashed DC;
//	                             the survivors agree on its final replicated
//	                             timestamps and resume)
//
// A failed command answers "ERR <message>" (an FDErr frame).
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
// later (Join) get the next consecutive port.
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

// Join grows the deployment by one data center — the JOIN admin command and
// pocckv's -join: the new DC registers, bootstraps every partition's history
// from its siblings' write-ahead logs through the catch-up protocol, and gets
// its own listener once it is active. It returns the new DC's id and address.
func (s *Server) Join() (dc int, addr string, err error) {
	if dc, err = s.store.AddDataCenter(); err != nil {
		return 0, "", err
	}
	if err = s.store.WaitForJoin(dc, time.Minute); err != nil {
		return 0, "", err
	}
	addr, err = s.ServeDC(dc)
	return dc, addr, err
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
	// Negotiate the encoding on the first byte: wire.FrontDoorMagic selects
	// binary frames, anything else (printable ASCII) starts a text line.
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
	// A text connection is one session answered in order: parse, execute,
	// render, one line at a time.
	ss := &fdSession{}
	ss.sess, ss.sessErr = s.store.Session(dc)
	scanner := bufio.NewScanner(br)
	scanner.Buffer(make([]byte, 64*1024), maxTextLine)
	var out []byte
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		req, err := wire.ParseTextRequest(line)
		if err == wire.ErrTextQuit {
			_, _ = conn.Write([]byte("BYE\n"))
			return
		}
		resp := wire.FrontDoorResponse{Kind: wire.FDErr}
		if err != nil {
			resp.Text = err.Error()
		} else {
			resp = s.execute(ss, &req)
		}
		out = wire.AppendTextResponse(out[:0], req.Op, &resp)
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
	// Tell the client why a line past maxTextLine loses it the connection.
	if errors.Is(scanner.Err(), bufio.ErrTooLong) {
		_, _ = conn.Write([]byte("ERR too long\n"))
	}
}

// execute runs one request against its session and builds the response: the
// one dispatcher behind both encodings.
func (s *Server) execute(ss *fdSession, req *wire.FrontDoorRequest) wire.FrontDoorResponse {
	if ss.sessErr != nil {
		// The session could not be opened — the DC left the deployment (or
		// the store is closing). Permanent for this connection.
		return wire.FrontDoorResponse{
			Kind: wire.FDErr, ID: req.ID,
			Code: wire.FDCodeNoDataCenter, Text: ss.sessErr.Error(),
		}
	}
	switch req.Op {
	case wire.FDPing:
		return wire.FrontDoorResponse{Kind: wire.FDOK, ID: req.ID}
	case wire.FDPut:
		// Key and value are borrowed (a binary frame's still lie in its
		// lease): the store copies them into the new version.
		if err := ss.sess.Put(req.Key, req.Value); err != nil {
			return fdError(req.ID, err)
		}
		return wire.FrontDoorResponse{Kind: wire.FDOK, ID: req.ID}
	case wire.FDGet:
		v, err := ss.sess.Get(req.Key)
		if err != nil {
			return fdError(req.ID, err)
		}
		return wire.FrontDoorResponse{
			Kind: wire.FDValue, ID: req.ID, Exists: v != nil, Value: v,
		}
	case wire.FDROTx:
		items := []wire.FrontDoorTxItem{}
		if len(req.Keys) > 0 {
			vals, err := ss.sess.ROTx(req.Keys)
			if err != nil {
				return fdError(req.ID, err)
			}
			items = make([]wire.FrontDoorTxItem, len(req.Keys))
			for i, k := range req.Keys {
				items[i] = wire.FrontDoorTxItem{Key: k, Exists: vals[i] != nil, Value: vals[i]}
			}
		}
		return wire.FrontDoorResponse{Kind: wire.FDTx, ID: req.ID, Items: items}
	case wire.FDStats, wire.FDAdmin:
		line := req.Line
		if req.Op == wire.FDStats {
			line = "STATS"
		}
		text, err := s.admin(line)
		if err != nil {
			return fdError(req.ID, err)
		}
		return wire.FrontDoorResponse{Kind: wire.FDText, ID: req.ID, Text: text}
	default:
		return wire.FrontDoorResponse{
			Kind: wire.FDErr, ID: req.ID, Code: wire.FDCodeGeneric,
			Text: "unknown op",
		}
	}
}

// fdError maps an operation error onto an FDErr response with a
// machine-readable code, so the client pool can reconstruct the canonical
// error value (errors.Is works on the far side) and drive retry policy
// without string matching.
func fdError(id uint64, err error) wire.FrontDoorResponse {
	code := wire.FDCodeGeneric
	switch {
	case errors.Is(err, occ.ErrWrongSlotEpoch):
		code = wire.FDCodeWrongSlotEpoch
	case errors.Is(err, occ.ErrSessionClosed):
		code = wire.FDCodeSessionClosed
	case errors.Is(err, occ.ErrStopped):
		code = wire.FDCodeStopped
	}
	return wire.FrontDoorResponse{
		Kind: wire.FDErr, ID: id, Code: code, Text: err.Error(),
	}
}

// admin runs one admin command line — the commands that never touch a client
// session — and returns its output, lines joined by "\n" with no trailing
// newline. Its switch is the allow-list: any other verb, a data command
// smuggled into an FDAdmin frame included, is an unknown command.
func (s *Server) admin(line string) (string, error) {
	cmd, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
	rest = strings.TrimSpace(rest)
	switch verb := strings.ToUpper(cmd); verb {
	case "WHEREIS":
		if rest == "" {
			return "", errors.New("usage: WHEREIS <key>")
		}
		return fmt.Sprintf("PARTITION %d", s.store.PartitionOf(rest)), nil
	case "STATS":
		return s.statsLine(), nil
	case "SPLIT":
		donor, err := strconv.Atoi(rest)
		if err != nil {
			return "", errors.New("usage: SPLIT <partition>")
		}
		np, err := s.store.SplitPartition(donor)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("SPLITDONE %d", np), nil
	case "MOVESLOTS":
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", errors.New("usage: MOVESLOTS <to> <slot> [slot...]")
		}
		to, err := strconv.Atoi(fields[0])
		if err != nil {
			return "", errors.New("usage: MOVESLOTS <to> <slot> [slot...]")
		}
		slots := make([]int, 0, len(fields)-1)
		for _, f := range fields[1:] {
			sl, err := strconv.Atoi(f)
			if err != nil {
				return "", fmt.Errorf("bad slot %q", f)
			}
			slots = append(slots, sl)
		}
		if err := s.store.MoveSlots(slots, to); err != nil {
			return "", err
		}
		return fmt.Sprintf("MOVED %d %d", len(slots), to), nil
	case "SLOTS":
		tbl := s.store.SlotTable()
		var sb strings.Builder
		fmt.Fprintf(&sb, "SLOTS epoch=%d parts=%d\n", tbl.Epoch, tbl.Parts)
		for p := 0; p < tbl.Parts; p++ {
			fmt.Fprintf(&sb, "SLOT %d", p)
			for _, sl := range tbl.SlotsOwnedBy(p) {
				fmt.Fprintf(&sb, " %d", sl)
			}
			sb.WriteByte('\n')
		}
		sb.WriteString("SLOTEND")
		return sb.String(), nil
	case "JOIN":
		dc, addr, err := s.Join()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("JOINED %d %s", dc, addr), nil
	case "LEAVE", "EVICT":
		dc, err := strconv.Atoi(rest)
		if err != nil {
			return "", fmt.Errorf("usage: %s <dc>", verb)
		}
		done := "LEFT"
		if verb == "LEAVE" {
			err = s.store.RemoveDataCenter(dc)
		} else {
			done, err = "EVICTED", s.store.ForceRemoveDataCenter(dc, 0)
		}
		if err != nil {
			return "", err
		}
		s.mu.Lock()
		if dc < len(s.listeners) && s.listeners[dc] != nil {
			_ = s.listeners[dc].Close()
			s.listeners[dc] = nil
		}
		s.mu.Unlock()
		return fmt.Sprintf("%s %d", done, dc), nil
	default:
		return "", fmt.Errorf("unknown command %q", cmd)
	}
}

// statsLine renders the store's counters as the one-line STATS reply.
func (s *Server) statsLine() string {
	st := s.store.Stats()
	return fmt.Sprintf("STATS ops=%d blocked=%d block_prob=%.3e old_pct=%.3f unmerged_pct=%.3f keys=%d versions=%d messages=%d dcs=%d max_lag_ms=%.3f link_lag_ms=%s catchups=%d catchups_served=%d catchups_active=%d gc_overruns=%d links=%s gc_holdback_ms=%.3f fsyncs=%d commit_groups=%d wal_records=%d group_p50=%d group_max=%d ack_lag_mean_us=%.1f ack_lag_max_us=%.1f seek_hits=%d full_scans=%d parts_skipped=%d partitions=%d slot_epoch=%d",
		st.Operations, st.BlockedOperations, st.BlockingProbability,
		st.PercentOldReads, st.PercentUnmergedReads, st.Keys, st.Versions, s.store.Messages(),
		s.store.DataCenters(),
		float64(st.MaxReplicationLag())/float64(time.Millisecond),
		formatLinks(st.ReplicationLagPerLink, func(l time.Duration) string {
			return strconv.FormatFloat(float64(l)/float64(time.Millisecond), 'f', 3, 64)
		}),
		st.CatchUps, st.CatchUpsServed, st.CatchUpsActive,
		st.GCOverruns, formatLinks(st.LinkStates, func(state string) string { return state }),
		float64(st.GCHoldbackAge)/float64(time.Millisecond),
		st.Fsyncs, st.CommitGroups, st.WALRecords, st.CommitGroupP50, st.CommitGroupMax,
		float64(st.AckToDurableMean)/float64(time.Microsecond),
		float64(st.AckToDurableMax)/float64(time.Microsecond),
		st.SeekHits, st.FullScans, st.PartsSkipped,
		st.Partitions, st.SlotEpoch)
}

// formatLinks renders a [dst][src] link matrix as "dst<src:cell" pairs for
// every distinct link — the lag in ms, e.g. "0<1:0.012,1<0:0.008", or the
// health, e.g. "0<1:active,1<0:frozen". A "-" stands for a deployment with no
// remote links.
func formatLinks[T any](links [][]T, cell func(T) string) string {
	var sb strings.Builder
	for dst, row := range links {
		for src, v := range row {
			if src == dst {
				continue
			}
			if sb.Len() > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d<%d:%s", dst, src, cell(v))
		}
	}
	if sb.Len() == 0 {
		return "-"
	}
	return sb.String()
}
