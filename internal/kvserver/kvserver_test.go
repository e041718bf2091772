package kvserver

import (
	"bufio"
	"fmt"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	occ "repro"
	"repro/internal/keyspace"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	store, err := occ.Open(occ.Config{
		DataCenters: 2, Partitions: 2, Engine: occ.POCC,
		Latency: occ.UniformProfile(20*time.Microsecond, 500*time.Microsecond),
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(store, "127.0.0.1", 0)
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	return srv
}

// textConn is one text-protocol connection to a listener: what a telnet
// session is to the server.
type textConn struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) textConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return textConn{conn, bufio.NewReader(conn)}
}

// rawConn exercises the wire protocol directly at DC 0.
func rawConn(t *testing.T, srv *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	c := dial(t, srv.Addr(0))
	return c.conn, c.r
}

func sendLine(t *testing.T, conn net.Conn, r *bufio.Reader, line string) string {
	t.Helper()
	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		t.Fatal(err)
	}
	return readLine(t, r)
}

func readLine(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	resp, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimRight(resp, "\n")
}

// send runs a one-line-reply command.
func (c textConn) send(t *testing.T, line string) string {
	t.Helper()
	return sendLine(t, c.conn, c.r, line)
}

// put writes a key and insists on OK.
func (c textConn) put(t *testing.T, key, value string) {
	t.Helper()
	if resp := c.send(t, "PUT "+key+" "+value); resp != "OK" {
		t.Fatalf("PUT %s = %q", key, resp)
	}
}

func TestPingPutGet(t *testing.T) {
	srv := testServer(t)
	c := dial(t, srv.Addr(0))
	if resp := c.send(t, "PING"); resp != "PONG" {
		t.Fatalf("ping = %q", resp)
	}
	c.put(t, "lang", "go")
	if resp := c.send(t, "GET lang"); resp != "VALUE go" {
		t.Fatalf("get = %q", resp)
	}
}

func TestGetMissing(t *testing.T) {
	srv := testServer(t)
	c := dial(t, srv.Addr(0))
	if resp := c.send(t, "GET nope"); resp != "NIL" {
		t.Fatalf("get = %q", resp)
	}
}

func TestValueWithSpaces(t *testing.T) {
	srv := testServer(t)
	c := dial(t, srv.Addr(0))
	c.put(t, "quote", "hello causal world")
	if resp := c.send(t, "GET quote"); resp != "VALUE hello causal world" {
		t.Fatalf("got %q", resp)
	}
}

func TestTx(t *testing.T) {
	srv := testServer(t)
	c := dial(t, srv.Addr(0))
	c.put(t, "a", "1")
	c.put(t, "b", "2")
	// One line per key in request order, a missing key as TXNIL, then TXEND.
	got := []string{c.send(t, "TX a b ghost"), readLine(t, c.r), readLine(t, c.r), readLine(t, c.r)}
	want := []string{"TXVAL a 1", "TXVAL b 2", "TXNIL ghost", "TXEND"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tx = %q, want %q", got, want)
	}
}

// awaitValue polls GET key on c until it reads want.
func awaitValue(t *testing.T, c textConn, key, want string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		resp := c.send(t, "GET "+key)
		if resp == "VALUE "+want {
			return
		}
		if resp != "NIL" {
			t.Fatalf("GET %s = %q", key, resp)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s=%s never visible", key, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCrossDCSessions(t *testing.T) {
	srv := testServer(t)
	writer := dial(t, srv.Addr(0))
	reader := dial(t, srv.Addr(1))
	writer.put(t, "geo", "replicated")
	awaitValue(t, reader, "geo", "replicated", 5*time.Second)
}

func TestStats(t *testing.T) {
	srv := testServer(t)
	c := dial(t, srv.Addr(0))
	c.put(t, "s", "1")
	if line := c.send(t, "STATS"); !strings.HasPrefix(line, "STATS ops=") {
		t.Fatalf("stats = %q", line)
	}
}

func TestProtocolErrors(t *testing.T) {
	srv := testServer(t)
	conn, r := rawConn(t, srv)
	for line, wantPrefix := range map[string]string{
		"PUT onlykey":   "ERR usage: PUT",
		"GET":           "ERR usage: GET",
		"GET two words": "ERR usage: GET",
		"TX":            "ERR usage: TX",
		"WHEREIS":       "ERR usage: WHEREIS",
		"FLY me":        "ERR unknown command",
	} {
		if resp := sendLine(t, conn, r, line); !strings.HasPrefix(resp, wantPrefix) {
			t.Fatalf("%q -> %q, want prefix %q", line, resp, wantPrefix)
		}
	}
}

func TestWhereis(t *testing.T) {
	srv := testServer(t)
	conn, r := rawConn(t, srv)
	resp := sendLine(t, conn, r, "WHEREIS somekey")
	if !strings.HasPrefix(resp, "PARTITION ") {
		t.Fatalf("whereis = %q", resp)
	}
}

func TestQuitClosesConnection(t *testing.T) {
	srv := testServer(t)
	conn, r := rawConn(t, srv)
	if resp := sendLine(t, conn, r, "QUIT"); resp != "BYE" {
		t.Fatalf("quit = %q", resp)
	}
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("connection must be closed after QUIT")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv := testServer(t)
	conn, r := rawConn(t, srv)
	srv.Close()
	if _, err := fmt.Fprintf(conn, "PING\n"); err == nil {
		if _, err := r.ReadString('\n'); err == nil {
			t.Fatal("connection must be closed by server shutdown")
		}
	}
}

func TestCausalChainOverWire(t *testing.T) {
	srv := testServer(t)
	alice := dial(t, srv.Addr(0))
	bob := dial(t, srv.Addr(1))
	alice.put(t, "photo", "cat.jpg")
	alice.put(t, "comment", "cute!")
	// Once Bob sees the comment, the photo must be visible too (Bob's
	// session carries the comment's dependency vector).
	awaitValue(t, bob, "comment", "cute!", 5*time.Second)
	if resp := bob.send(t, "GET photo"); resp != "VALUE cat.jpg" {
		t.Fatalf("photo = %q: causality violated over the wire", resp)
	}
}

// TestJoinLeaveAdminCommands drives the elastic-membership surface over the
// wire: JOIN grows the deployment (the new DC bootstraps from the existing
// WALs and gets its own listener), the new port serves the pre-join data,
// and LEAVE retires the DC again.
func TestJoinLeaveAdminCommands(t *testing.T) {
	store, err := occ.Open(occ.Config{
		DataCenters: 2, Partitions: 2, Engine: occ.POCC,
		MaxDataCenters: 3,
		DataDir:        t.TempDir(),
		Seed:           9,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(store, "127.0.0.1", 0)
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})

	admin := dial(t, srv.Addr(0))
	admin.put(t, "greeting", "hello")

	const dc = 2
	addr := srv.Addr(dc)
	if addr != "" {
		t.Fatalf("DC %d has listener %q before JOIN", dc, addr)
	}
	resp := admin.send(t, "JOIN")
	addr = srv.Addr(dc)
	if addr == "" || resp != fmt.Sprintf("JOINED %d %s", dc, addr) {
		t.Fatalf("JOIN = %q (server says dc %d listens on %q)", resp, dc, addr)
	}

	// The new port serves the pre-join key.
	awaitValue(t, dial(t, addr), "greeting", "hello", 10*time.Second)

	stats := admin.send(t, "STATS")
	if !strings.Contains(stats, "dcs=3") || !strings.Contains(stats, "link_lag_ms=") {
		t.Fatalf("stats line missing membership fields: %q", stats)
	}

	if resp := admin.send(t, "LEAVE 2"); resp != "LEFT 2" {
		t.Fatalf("LEAVE = %q", resp)
	}
	if srv.Addr(dc) != "" {
		t.Fatalf("departed DC still has listener %q", srv.Addr(dc))
	}
	if resp := admin.send(t, "LEAVE 2"); !strings.HasPrefix(resp, "ERR ") {
		t.Fatalf("double LEAVE = %q, must fail", resp)
	}
	// The survivors keep serving.
	if resp := admin.send(t, "GET greeting"); resp != "VALUE hello" {
		t.Fatalf("survivor get = %q", resp)
	}
}

// readSlots sends SLOTS and reads the multi-line reply: the header plus
// every SLOT line through SLOTEND.
func readSlots(t *testing.T, conn net.Conn, r *bufio.Reader) (header string, slotLines []string) {
	t.Helper()
	header = sendLine(t, conn, r, "SLOTS")
	for {
		line := readLine(t, r)
		if line == "SLOTEND" {
			return header, slotLines
		}
		slotLines = append(slotLines, line)
	}
}

// TestSlotsAgreeWithWhereisAtEpochZero: before the first reshard SLOTS
// prints the table WHEREIS answers from — every key's owner is the
// partition whose SLOT line lists the key's slot — on a partition count
// that does not divide the slot universe.
func TestSlotsAgreeWithWhereisAtEpochZero(t *testing.T) {
	store, err := occ.Open(occ.Config{DataCenters: 1, Partitions: 3, Engine: occ.POCC})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(store, "127.0.0.1", 0)
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	conn, r := rawConn(t, srv)
	header, lines := readSlots(t, conn, r)
	if header != "SLOTS epoch=0 parts=3" || len(lines) != 3 {
		t.Fatalf("slots = %q %v", header, lines)
	}
	owner := make(map[string]string) // slot -> the partition whose line lists it
	for _, line := range lines {
		f := strings.Fields(line) // SLOT <p> <slots...>
		for _, sl := range f[2:] {
			owner[sl] = f[1]
		}
	}
	if len(owner) != keyspace.NumSlots {
		t.Fatalf("SLOT lines list %d slots, want %d", len(owner), keyspace.NumSlots)
	}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("where-%d", i)
		want := "PARTITION " + owner[strconv.Itoa(keyspace.SlotOf(key))]
		if resp := sendLine(t, conn, r, "WHEREIS "+key); resp != want {
			t.Fatalf("WHEREIS %s = %q, SLOTS says %q (slot %d)", key, resp, want, keyspace.SlotOf(key))
		}
	}
}

func TestSplitAndSlotsAdminCommands(t *testing.T) {
	store, err := occ.Open(occ.Config{
		DataCenters: 2, Partitions: 2, Engine: occ.POCC,
		MaxPartitions: 3,
		Seed:          13,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(store, "127.0.0.1", 0)
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})

	admin := dial(t, srv.Addr(0))
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("reshard-%d", i)
		admin.put(t, keys[i], "v")
	}

	conn, r := rawConn(t, srv)
	// Before any reshard SLOTS prints the epoch-0 table.
	header, lines := readSlots(t, conn, r)
	if header != "SLOTS epoch=0 parts=2" || len(lines) != 2 {
		t.Fatalf("slots before split = %q %v", header, lines)
	}

	if resp := sendLine(t, conn, r, "SPLIT 0"); resp != "SPLITDONE 2" {
		t.Fatalf("split = %q", resp)
	}
	if got := store.Partitions(); got != 3 {
		t.Fatalf("partitions = %d after split, want 3", got)
	}

	// The installed table renders one SLOT line per partition and every
	// partition owns at least one slot.
	header, lines = readSlots(t, conn, r)
	if header != "SLOTS epoch=1 parts=3" {
		t.Fatalf("slots header = %q", header)
	}
	if len(lines) != 3 {
		t.Fatalf("slot lines = %v, want 3", lines)
	}
	for p, line := range lines {
		if !strings.HasPrefix(line, fmt.Sprintf("SLOT %d ", p)) {
			t.Fatalf("slot line %d = %q", p, line)
		}
	}

	// STATS surfaces the live layout.
	stats := admin.send(t, "STATS")
	if !strings.Contains(stats, "partitions=3") || !strings.Contains(stats, "slot_epoch=1") {
		t.Fatalf("stats missing layout fields: %q", stats)
	}

	// Every pre-split key is still served, now through the wider layout.
	for _, k := range keys {
		if resp := admin.send(t, "GET "+k); resp != "VALUE v" {
			t.Fatalf("get %q after split = %q", k, resp)
		}
	}

	// MOVESLOTS reassigns an explicit range and bumps the epoch; WHEREIS
	// agrees with the table afterwards.
	tbl := store.SlotTable()
	owned := tbl.SlotsOwnedBy(0)
	if len(owned) == 0 {
		t.Fatal("partition 0 owns nothing after split")
	}
	moveCmd := "MOVESLOTS 1"
	for _, sl := range owned[:2] {
		moveCmd += fmt.Sprintf(" %d", sl)
	}
	if resp := sendLine(t, conn, r, moveCmd); resp != "MOVED 2 1" {
		t.Fatalf("moveslots = %q", resp)
	}
	if got := store.SlotTable().Epoch; got != 2 {
		t.Fatalf("slot epoch = %d after move, want 2", got)
	}
	resp := sendLine(t, conn, r, "WHEREIS "+keys[0])
	wantP := store.PartitionOf(keys[0])
	if !strings.HasPrefix(resp, fmt.Sprintf("PARTITION %d", wantP)) {
		t.Fatalf("whereis %q = %q, want partition %d", keys[0], resp, wantP)
	}

	// Bad arguments are usage errors, not table mutations.
	if resp := sendLine(t, conn, r, "SPLIT"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("bare SPLIT = %q", resp)
	}
	if resp := sendLine(t, conn, r, "MOVESLOTS 1"); !strings.HasPrefix(resp, "ERR usage: MOVESLOTS") {
		t.Fatalf("bare MOVESLOTS = %q", resp)
	}
}
