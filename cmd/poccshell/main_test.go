package main

import (
	"io"
	"net"
	"strings"
	"testing"
	"time"

	occ "repro"
)

func testShell(t *testing.T) *shell {
	t.Helper()
	store, err := occ.Open(occ.Config{
		DataCenters: 2, Partitions: 2, Engine: occ.POCC,
		Latency: occ.UniformProfile(20*time.Microsecond, 200*time.Microsecond),
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	sh, err := newShell(store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.close)
	return sh
}

func runCmd(sh *shell, line string) string {
	var sb strings.Builder
	sh.exec(&sb, line)
	return sb.String()
}

// rawText answers line the way the front door's text encoding does: typed on
// a fresh connection to the listener, followed by QUIT so the reply — however
// many lines it has — ends where the server's BYE begins.
func rawText(t *testing.T, addr, line string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(conn, line+"\nQUIT\n"); err != nil {
		t.Fatal(err)
	}
	all, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	reply, ok := strings.CutSuffix(string(all), "BYE\n")
	if !ok {
		t.Fatalf("%q: reply %q does not end in BYE", line, all)
	}
	return reply
}

// TestShellSpeaksTheFrontDoor types the rows of kvserver.TestTextBinaryParity
// that have a text spelling into the shell and onto a raw text connection to
// the same store's listener: the shell has no grammar or renderer of its
// own, so the two answers are the same bytes.
func TestShellSpeaksTheFrontDoor(t *testing.T) {
	sh := testShell(t)
	for _, tc := range []struct {
		name, line string
		prefix     string // compare only up to here: the rest counts operations
	}{
		{name: "PING", line: "PING"},
		{name: "PUT", line: "PUT k hello world"},
		{name: "GET hit", line: "GET k"},
		{name: "GET miss", line: "get ghost"},
		{name: "TX", line: "TX k ghost"},
		{name: "STATS", line: "STATS", prefix: "STATS ops="},
		{name: "WHEREIS", line: "WHEREIS k"},
		{name: "SLOTS", line: "SLOTS"},
		{name: "unknown verb", line: "FLY me"},
		{name: "admin usage error", line: "WHEREIS"},
		{name: "data usage error", line: "PUT onlykey"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := runCmd(sh, tc.line), rawText(t, sh.srv.Addr(0), tc.line)
			if tc.prefix != "" && strings.HasPrefix(got, tc.prefix) && strings.HasPrefix(want, tc.prefix) {
				return
			}
			if got != want || got == "" {
				t.Errorf("%q: shell answered %q, the text front door %q", tc.line, got, want)
			}
		})
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	sh := testShell(t)
	if out := runCmd(sh, "put color blue"); out != "OK\n" {
		t.Fatalf("put: %q", out)
	}
	if out := runCmd(sh, "get color"); out != "VALUE blue\n" {
		t.Fatalf("get: %q", out)
	}
}

func TestPutMultiWordValue(t *testing.T) {
	sh := testShell(t)
	runCmd(sh, "put msg hello causal world")
	if out := runCmd(sh, "get msg"); out != "VALUE hello causal world\n" {
		t.Fatalf("get: %q", out)
	}
}

func TestGetMissing(t *testing.T) {
	sh := testShell(t)
	if out := runCmd(sh, "get ghost"); out != "NIL\n" {
		t.Fatalf("get: %q", out)
	}
}

func TestTx(t *testing.T) {
	sh := testShell(t)
	runCmd(sh, "put a 1")
	runCmd(sh, "put b 2")
	if out := runCmd(sh, "tx a b"); out != "TXVAL a 1\nTXVAL b 2\nTXEND\n" {
		t.Fatalf("tx: %q", out)
	}
}

func TestDCSwitch(t *testing.T) {
	sh := testShell(t)
	if out := runCmd(sh, "dc 1"); out != "" {
		t.Fatalf("dc: %q", out)
	}
	if sh.dc != 1 {
		t.Fatal("dc not switched")
	}
	if out := runCmd(sh, "dc 9"); !strings.Contains(out, "no data center") {
		t.Fatalf("dc 9: %q", out)
	}
	if out := runCmd(sh, "dc x"); !strings.Contains(out, "no data center") {
		t.Fatalf("dc x: %q", out)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	sh := testShell(t)
	if out := runCmd(sh, "partition 0 1"); !strings.Contains(out, "down") {
		t.Fatalf("partition: %q", out)
	}
	runCmd(sh, "put island yes") // dc0 write while partitioned
	runCmd(sh, "dc 1")
	if out := runCmd(sh, "get island"); out != "NIL\n" {
		t.Fatalf("partitioned read leaked: %q", out)
	}
	if out := runCmd(sh, "heal 0 1"); !strings.Contains(out, "healed") {
		t.Fatalf("heal: %q", out)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runCmd(sh, "get island") != "VALUE yes\n" {
		if time.Now().After(deadline) {
			t.Fatal("healed write never became visible")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStatsAndWhereis(t *testing.T) {
	sh := testShell(t)
	runCmd(sh, "put k v")
	if out := runCmd(sh, "stats"); !strings.HasPrefix(out, "STATS ops=") || strings.Count(out, "\n") != 1 {
		t.Fatalf("stats: %q", out)
	}
	if out := runCmd(sh, "whereis k"); !strings.HasPrefix(out, "PARTITION ") {
		t.Fatalf("whereis: %q", out)
	}
}

func TestUnknownAndUsage(t *testing.T) {
	sh := testShell(t)
	if out := runCmd(sh, "frobnicate"); out != "ERR unknown command \"frobnicate\"\n" {
		t.Fatalf("unknown: %q", out)
	}
	// A forwarded verb's usage error is the front door's, naming the verb as
	// the protocol spells it (TestShellSpeaksTheFrontDoor compares the bytes).
	for _, line := range []string{"put onlykey", "get", "tx", "whereis"} {
		verb, _, _ := strings.Cut(line, " ")
		if out := runCmd(sh, line); !strings.HasPrefix(out, "ERR usage: "+strings.ToUpper(verb)+" <key>") {
			t.Errorf("%q: %q", line, out)
		}
	}
	for _, tc := range []struct{ line, want string }{
		{"dc", "ERR usage: dc <dc>"},
		{"partition 1", "ERR usage: partition <dc> <dc>"},
		{"kill", "ERR usage: kill <dc>"},
		// A link needs two different data centers that exist: the emulated
		// network matches no link otherwise, and used to report success.
		{"partition 0 7", `ERR no data center "7" (have 0..1)`},
		{"heal -1 0", `ERR no data center "-1" (have 0..1)`},
		{"partition 0 0", "ERR no data center pair: dc0 has no link to itself"},
	} {
		if out := runCmd(sh, tc.line); out != tc.want+"\n" {
			t.Errorf("%q: %q, want %q", tc.line, out, tc.want)
		}
	}
	if out := runCmd(sh, "help"); !strings.Contains(out, "local commands:") {
		t.Fatalf("help: %q", out)
	}
}

func TestREPLQuit(t *testing.T) {
	sh := testShell(t)
	in := strings.NewReader("put x 1\nget x\nquit\nget never-reached\n")
	var out strings.Builder
	if err := sh.repl(in, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "dc0> OK\ndc0> VALUE 1\ndc0> " {
		t.Fatalf("repl output: %q", got)
	}
}
