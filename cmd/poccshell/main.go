// Command poccshell is an interactive shell over a POCC deployment — a
// hands-on tour of optimistic causal consistency. It opens an in-process
// multi-DC store, serves it on loopback through the real front door
// (internal/kvserver) and is that front door's client: a typed line is a line
// of the text protocol (PUT, GET, TX, STATS, WHEREIS, JOIN, SPLIT, …; the
// grammar lives in internal/wire and internal/kvserver, nowhere here), sent
// to the current data center's listener exactly as cmd/pocccli sends it and
// answered in the protocol's lines. The shell adds only what needs the store
// handle or its own state and has no front-door spelling: switching data
// centers, cutting and healing inter-DC links, and crashing a DC.
//
// Usage:
//
//	poccshell [-engine pocc|cure|hapocc] [-dcs 3] [-partitions 4] [-max-dcs 6] [-max-partitions 8]
//
// Then type "help".
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	occ "repro"
	"repro/internal/client"
	"repro/internal/kvserver"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		engineFlag = flag.String("engine", "pocc", "pocc, cure or hapocc")
		dcs        = flag.Int("dcs", 3, "number of data centers")
		partitions = flag.Int("partitions", 4, "partitions per data center")
		latency    = flag.Float64("latency", 0.05, "AWS latency scale (1.0 = real)")
		maxDCs     = flag.Int("max-dcs", 0, "DC-slot capacity for the JOIN command (0 = -dcs, fixed membership)")
		maxParts   = flag.Int("max-partitions", 0, "partition capacity for the SPLIT command (0 = -partitions, fixed keyspace layout)")
		dataDir    = flag.String("data-dir", "", "durable WAL-backed storage root (required for JOIN; a temp dir is used when -max-dcs is set without it)")
	)
	flag.Parse()

	engine, err := occ.ParseEngine(*engineFlag)
	if err != nil {
		return err
	}
	dir := *dataDir
	if dir == "" && *maxDCs > *dcs {
		// Joins bootstrap from the siblings' WALs, so an elastic shell needs
		// durable storage even if the user did not ask for a specific root.
		if dir, err = os.MkdirTemp("", "poccshell-*"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	store, err := occ.Open(occ.Config{
		DataCenters:    *dcs,
		Partitions:     *partitions,
		Engine:         engine,
		Latency:        occ.AWSProfile(*latency),
		Seed:           uint64(time.Now().UnixNano()),
		DataDir:        dir,
		MaxDataCenters: *maxDCs,
		MaxPartitions:  *maxParts,
	})
	if err != nil {
		return err
	}
	defer store.Close()

	fmt.Printf("opened %s store: %d DCs × %d partitions (type \"help\")\n",
		engine, *dcs, *partitions)
	sh, err := newShell(store)
	if err != nil {
		return err
	}
	defer sh.close()
	return sh.repl(os.Stdin, os.Stdout)
}

// shell holds the REPL state: the store's front door, one client session per
// data center visited so far, one current DC.
type shell struct {
	store    *occ.Store
	srv      *kvserver.Server
	dc       int
	pools    []*client.Pool
	sessions map[int]*client.RemoteSession // by DC, dialled on first use
}

func newShell(store *occ.Store) (*shell, error) {
	srv, err := kvserver.Serve(store, "127.0.0.1", 0)
	if err != nil {
		return nil, err
	}
	return &shell{store: store, srv: srv, sessions: make(map[int]*client.RemoteSession)}, nil
}

func (sh *shell) close() {
	for _, p := range sh.pools {
		p.Close()
	}
	sh.srv.Close()
}

func (sh *shell) repl(in io.Reader, out io.Writer) error {
	scanner := bufio.NewScanner(in)
	for {
		fmt.Fprintf(out, "dc%d> ", sh.dc)
		if !scanner.Scan() {
			fmt.Fprintln(out)
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if !sh.exec(out, line) {
			return nil
		}
	}
}

const helpText = `local commands:
  dc <dc>              switch the shell's session to a data center
  partition <dc> <dc>  cut all network links between two DCs
  heal <dc> <dc>       heal them
  kill <dc>            crash every server of a DC (needs -data-dir; the
                       others' stabilization freezes until you EVICT it)
  help, quit
every other line goes to the current DC's listener, as pocccli or nc would
send it, and is answered in the protocol's lines (a bare verb answers with
its usage):
  PING PUT GET TX STATS                            go doc repro/internal/wire
  WHEREIS SPLIT MOVESLOTS SLOTS JOIN LEAVE EVICT   go doc repro/internal/kvserver
`

// exec runs one non-empty command line; false means the line asked to leave.
// The shell's own verbs are the ones that need the store handle or the
// shell's state and have no front-door spelling; like the protocol's they are
// case-insensitive and their errors are ERR lines.
func (sh *shell) exec(out io.Writer, line string) bool {
	fields := strings.Fields(line)
	verb, args := strings.ToLower(fields[0]), fields[1:]
	var err error
	switch verb {
	case "quit", "exit":
		return false
	case "help":
		fmt.Fprint(out, helpText)
	case "dc", "kill":
		err = sh.local(out, verb, args, 1)
	case "partition", "heal":
		err = sh.local(out, verb, args, 2)
	default:
		sh.forward(out, line)
	}
	if err != nil {
		fmt.Fprintf(out, "ERR %v\n", err)
	}
	return true
}

// local runs one of the shell's own verbs; each takes n data centers.
func (sh *shell) local(out io.Writer, verb string, args []string, n int) error {
	if len(args) != n {
		return fmt.Errorf("usage: %s%s", verb, strings.Repeat(" <dc>", n))
	}
	dcs := make([]int, len(args))
	for i, arg := range args {
		dc, err := strconv.Atoi(arg)
		if err != nil || dc < 0 || dc >= sh.store.DataCenters() {
			return fmt.Errorf("no data center %q (have 0..%d)", arg, sh.store.DataCenters()-1)
		}
		dcs[i] = dc
	}
	switch verb {
	case "dc":
		if sh.srv.Addr(dcs[0]) == "" {
			return fmt.Errorf("no data center %d: it left the deployment", dcs[0])
		}
		sh.dc = dcs[0]
	case "kill":
		if err := sh.store.KillDataCenter(dcs[0]); err != nil {
			return err
		}
		fmt.Fprintf(out, "dc%d crashed; stabilization on the others freezes until \"EVICT %d\"\n", dcs[0], dcs[0])
	default: // partition, heal
		if dcs[0] == dcs[1] {
			// The emulated network would match no link and say nothing.
			return fmt.Errorf("no data center pair: dc%d has no link to itself", dcs[0])
		}
		down, state := verb == "partition", "healed"
		if down {
			state = "are down"
		}
		sh.store.PartitionNetwork(dcs[0], dcs[1], down)
		fmt.Fprintf(out, "links between dc%d and dc%d %s\n", dcs[0], dcs[1], state)
	}
	return nil
}

// forward sends one line to the current DC's listener and prints the reply:
// the whole of the shell's part in a front-door command. (QUIT, in any case,
// never gets here: exec leaves on it.)
func (sh *shell) forward(out io.Writer, line string) {
	sess := sh.sessions[sh.dc]
	if sess == nil {
		pool, err := client.DialPool(client.PoolConfig{Addr: sh.srv.Addr(sh.dc), Conns: 1})
		if err != nil {
			fmt.Fprintf(out, "ERR %v\n", err)
			return
		}
		sh.pools = append(sh.pools, pool)
		sess = pool.Session()
		sh.sessions[sh.dc] = sess
	}
	reply, _ := sess.TextRoundTrip(nil, line)
	_, _ = out.Write(reply)
	if sh.srv.Addr(sh.dc) == "" {
		// The line was a LEAVE or EVICT of the current DC: its listener is
		// gone, so move to the lowest DC still served.
		for dc := 0; dc < sh.store.DataCenters(); dc++ {
			if sh.srv.Addr(dc) != "" {
				sh.dc = dc
				break
			}
		}
	}
}
