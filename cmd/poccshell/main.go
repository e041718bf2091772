// Command poccshell is an interactive shell over a POCC deployment: it
// opens an in-process multi-DC store and lets you issue GETs, PUTs and
// read-only transactions from sessions in different data centers, inject
// and heal network partitions, grow and shrink the deployment (join/leave,
// with -max-dcs headroom), split hot partitions live (split/moveslots, with
// -max-partitions headroom), and inspect statistics — a hands-on tour of
// optimistic causal consistency.
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
	"repro/internal/repl"
)

func main() {
	var (
		engineFlag = flag.String("engine", "pocc", "pocc, cure or hapocc")
		dcs        = flag.Int("dcs", 3, "number of data centers")
		partitions = flag.Int("partitions", 4, "partitions per data center")
		latency    = flag.Float64("latency", 0.05, "AWS latency scale (1.0 = real)")
		maxDCs     = flag.Int("max-dcs", 0, "DC-slot capacity for the join command (0 = -dcs, fixed membership)")
		maxParts   = flag.Int("max-partitions", 0, "partition capacity for the split command (0 = -partitions, fixed keyspace layout)")
		dataDir    = flag.String("data-dir", "", "durable WAL-backed storage root (required for join; a temp dir is used when -max-dcs is set without it)")
	)
	flag.Parse()

	engine, err := parseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	dir := *dataDir
	if dir == "" && *maxDCs > *dcs {
		// Joins bootstrap from the siblings' WALs, so an elastic shell needs
		// durable storage even if the user did not ask for a specific root.
		if dir, err = os.MkdirTemp("", "poccshell-*"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
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
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer store.Close()

	fmt.Printf("opened %s store: %d DCs × %d partitions (type \"help\")\n",
		engine, *dcs, *partitions)
	sh, err := newShell(store)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := sh.repl(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func parseEngine(s string) (occ.Engine, error) {
	switch strings.ToLower(s) {
	case "pocc":
		return occ.POCC, nil
	case "cure", "cure*", "curestar":
		return occ.CureStar, nil
	case "hapocc", "ha-pocc":
		return occ.HAPOCC, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (want pocc, cure or hapocc)", s)
	}
}

// shell holds the REPL state: one session per data center, one current DC.
type shell struct {
	store    *occ.Store
	sessions []*occ.Session
	dc       int
}

func newShell(store *occ.Store) (*shell, error) {
	sh := &shell{store: store}
	for dc := 0; dc < store.DataCenters(); dc++ {
		s, err := store.Session(dc)
		if err != nil {
			return nil, err
		}
		sh.sessions = append(sh.sessions, s)
	}
	return sh, nil
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
		if line == "quit" || line == "exit" {
			return nil
		}
		sh.exec(out, line)
	}
}

// exec runs one command line.
func (sh *shell) exec(out io.Writer, line string) {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		fmt.Fprint(out, helpText)
	case "dc":
		sh.cmdDC(out, args)
	case "put":
		sh.cmdPut(out, args)
	case "get":
		sh.cmdGet(out, args)
	case "tx":
		sh.cmdTx(out, args)
	case "partition":
		sh.cmdPartition(out, args, true)
	case "heal":
		sh.cmdPartition(out, args, false)
	case "stats":
		sh.cmdStats(out)
	case "whereis":
		sh.cmdWhereis(out, args)
	case "join":
		sh.cmdJoin(out)
	case "leave":
		sh.cmdLeave(out, args)
	case "kill":
		sh.cmdKill(out, args)
	case "evict":
		sh.cmdEvict(out, args)
	case "split":
		sh.cmdSplit(out, args)
	case "moveslots":
		sh.cmdMoveSlots(out, args)
	case "slots":
		sh.cmdSlots(out)
	default:
		fmt.Fprintf(out, "unknown command %q (try \"help\")\n", cmd)
	}
}

const helpText = `commands:
  dc <i>                switch the current session to data center i
  put <key> <value>     write a key from the current DC's session
  get <key>             read a key from the current DC's session
  tx <key> [key...]     causally consistent read-only transaction
  whereis <key>         show the partition a key maps to
  partition <a> <b>     cut all network links between DCs a and b
  heal <a> <b>          heal the links between DCs a and b
  join                  grow the deployment by one DC (bootstraps its full
                        history from the others via WAL catch-up; needs
                        -max-dcs headroom)
  leave <dc>            remove a DC (its history survives on the others)
  kill <dc>             crash every server of a DC (needs -data-dir; the
                        others' stabilization freezes until you evict it)
  evict <dc>            forcibly remove a crashed DC: the survivors agree on
                        its final replicated timestamps and resume
  split <p>             grow every DC by one partition server: half of
                        partition p's hash slots (and their history) move to
                        it live (needs -max-partitions headroom)
  moveslots <to> <s...> reassign hash slots to an existing partition,
                        migrating their history first
  slots                 show the slot routing table (epoch 0 = static
                        layout)
  stats                 server-side blocking/staleness statistics, link
                        health and GC holdback
  quit                  exit
`

func (sh *shell) cmdDC(out io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(out, "usage: dc <i>")
		return
	}
	i, err := strconv.Atoi(args[0])
	if err != nil || i < 0 || i >= len(sh.sessions) || sh.sessions[i] == nil {
		fmt.Fprintf(out, "no data center %q (have 0..%d)\n", args[0], len(sh.sessions)-1)
		return
	}
	sh.dc = i
}

func (sh *shell) cmdPut(out io.Writer, args []string) {
	if len(args) < 2 {
		fmt.Fprintln(out, "usage: put <key> <value>")
		return
	}
	key, val := args[0], strings.Join(args[1:], " ")
	start := time.Now()
	if err := sh.sessions[sh.dc].Put(key, []byte(val)); err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(out, "OK (%v)\n", time.Since(start).Round(time.Microsecond))
}

func (sh *shell) cmdGet(out io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(out, "usage: get <key>")
		return
	}
	start := time.Now()
	v, err := sh.sessions[sh.dc].Get(args[0])
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	if v == nil {
		fmt.Fprintf(out, "(nil) (%v)\n", time.Since(start).Round(time.Microsecond))
		return
	}
	fmt.Fprintf(out, "%q (%v)\n", v, time.Since(start).Round(time.Microsecond))
}

func (sh *shell) cmdTx(out io.Writer, args []string) {
	if len(args) == 0 {
		fmt.Fprintln(out, "usage: tx <key> [key...]")
		return
	}
	start := time.Now()
	vals, err := sh.sessions[sh.dc].ROTx(args)
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	for _, k := range args {
		if vals[k] == nil {
			fmt.Fprintf(out, "  %s = (nil)\n", k)
		} else {
			fmt.Fprintf(out, "  %s = %q\n", k, vals[k])
		}
	}
	fmt.Fprintf(out, "snapshot read in %v\n", time.Since(start).Round(time.Microsecond))
}

func (sh *shell) cmdPartition(out io.Writer, args []string, down bool) {
	if len(args) != 2 {
		fmt.Fprintln(out, "usage: partition|heal <dcA> <dcB>")
		return
	}
	a, errA := strconv.Atoi(args[0])
	b, errB := strconv.Atoi(args[1])
	if errA != nil || errB != nil {
		fmt.Fprintln(out, "data centers must be numbers")
		return
	}
	sh.store.PartitionNetwork(a, b, down)
	if down {
		fmt.Fprintf(out, "links between dc%d and dc%d are down\n", a, b)
	} else {
		fmt.Fprintf(out, "links between dc%d and dc%d healed\n", a, b)
	}
}

func (sh *shell) cmdStats(out io.Writer) {
	st := sh.store.Stats()
	fmt.Fprintf(out, "ops=%d blocked=%d (prob %.2e, mean %v)\n",
		st.Operations, st.BlockedOperations, st.BlockingProbability, st.MeanBlockingTime)
	fmt.Fprintf(out, "old reads=%.3f%% unmerged=%.3f%% keys=%d versions=%d messages=%d\n",
		st.PercentOldReads, st.PercentUnmergedReads, st.Keys, st.Versions, sh.store.Messages())
	fmt.Fprintf(out, "layout: partitions=%d slot_epoch=%d\n", st.Partitions, st.SlotEpoch)
	fmt.Fprintf(out, "replication: max lag=%v catchups=%d served=%d active=%d full_resyncs=%d\n",
		st.MaxReplicationLag().Round(time.Microsecond), st.CatchUps, st.CatchUpsServed,
		st.CatchUpsActive, st.FullResyncs)
	if st.GCHoldbackAge > 0 {
		fmt.Fprintf(out, "gc holdback: oldest laggard deferring GC for %v\n",
			st.GCHoldbackAge.Round(time.Millisecond))
	}
	if st.CommitGroups > 0 {
		fmt.Fprintf(out, "durable: fsyncs=%d groups=%d records=%d group_p50=%d group_max=%d ack_lag mean=%v max=%v\n",
			st.Fsyncs, st.CommitGroups, st.WALRecords, st.CommitGroupP50, st.CommitGroupMax,
			st.AckToDurableMean.Round(time.Microsecond), st.AckToDurableMax.Round(time.Microsecond))
		fmt.Fprintf(out, "catch-up seeks: hits=%d full_scans=%d parts_skipped=%d\n",
			st.SeekHits, st.FullScans, st.PartsSkipped)
	}
	for dst, row := range st.ReplicationLagPerLink {
		for src, lag := range row {
			if src != dst && lag > 0 {
				fmt.Fprintf(out, "  link dc%d<-dc%d lag=%v\n", dst, src, lag.Round(time.Microsecond))
			}
		}
	}
	for dst, row := range st.LinkStates {
		for src, state := range row {
			if src != dst && state != repl.LinkActive.String() {
				fmt.Fprintf(out, "  link dc%d<-dc%d state=%s\n", dst, src, state)
			}
		}
	}
	for i, s := range sh.sessions {
		if s == nil {
			fmt.Fprintf(out, "session dc%d: (left the deployment)\n", i)
			continue
		}
		mode := "optimistic"
		if s.Pessimistic() {
			mode = "pessimistic"
		}
		fmt.Fprintf(out, "session dc%d: %s (fallbacks=%d promotions=%d)\n",
			i, mode, s.Fallbacks(), s.Promotions())
	}
}

func (sh *shell) cmdJoin(out io.Writer) {
	dc, err := sh.store.AddDataCenter()
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(out, "dc%d starting: bootstrapping history via WAL catch-up...\n", dc)
	start := time.Now()
	if err := sh.store.WaitForJoin(dc, time.Minute); err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	sess, err := sh.store.Session(dc)
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	sh.sessions = append(sh.sessions, sess)
	fmt.Fprintf(out, "dc%d joined and is active (%v); \"dc %d\" switches to it\n",
		dc, time.Since(start).Round(time.Millisecond), dc)
}

func (sh *shell) cmdLeave(out io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(out, "usage: leave <dc>")
		return
	}
	dc, err := strconv.Atoi(args[0])
	if err != nil {
		fmt.Fprintln(out, "data center must be a number")
		return
	}
	if err := sh.store.RemoveDataCenter(dc); err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	if dc < len(sh.sessions) {
		sh.sessions[dc] = nil
	}
	if sh.dc == dc {
		for i, s := range sh.sessions {
			if s != nil {
				sh.dc = i
				break
			}
		}
	}
	fmt.Fprintf(out, "dc%d left; its history lives on in the remaining DCs\n", dc)
}

func (sh *shell) cmdKill(out io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(out, "usage: kill <dc>")
		return
	}
	dc, err := strconv.Atoi(args[0])
	if err != nil {
		fmt.Fprintln(out, "data center must be a number")
		return
	}
	if err := sh.store.KillDataCenter(dc); err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(out, "dc%d crashed; stabilization on the others freezes until \"evict %d\"\n", dc, dc)
}

func (sh *shell) cmdEvict(out io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(out, "usage: evict <dc>")
		return
	}
	dc, err := strconv.Atoi(args[0])
	if err != nil {
		fmt.Fprintln(out, "data center must be a number")
		return
	}
	start := time.Now()
	if err := sh.store.ForceRemoveDataCenter(dc, 0); err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	if dc < len(sh.sessions) {
		sh.sessions[dc] = nil
	}
	if sh.dc == dc {
		for i, s := range sh.sessions {
			if s != nil {
				sh.dc = i
				break
			}
		}
	}
	fmt.Fprintf(out, "dc%d evicted in %v: survivors agreed on its final timestamps and resumed\n",
		dc, time.Since(start).Round(time.Millisecond))
}

func (sh *shell) cmdWhereis(out io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(out, "usage: whereis <key>")
		return
	}
	fmt.Fprintf(out, "partition %d\n", sh.store.PartitionOf(args[0]))
}

func (sh *shell) cmdSplit(out io.Writer, args []string) {
	if len(args) != 1 {
		fmt.Fprintln(out, "usage: split <partition>")
		return
	}
	donor, err := strconv.Atoi(args[0])
	if err != nil {
		fmt.Fprintln(out, "partition must be a number")
		return
	}
	start := time.Now()
	np, err := sh.store.SplitPartition(donor)
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(out, "partition %d split in %v: p%d now serves half its slots (epoch %d)\n",
		donor, time.Since(start).Round(time.Millisecond), np, sh.store.Stats().SlotEpoch)
}

func (sh *shell) cmdMoveSlots(out io.Writer, args []string) {
	if len(args) < 2 {
		fmt.Fprintln(out, "usage: moveslots <to> <slot> [slot...]")
		return
	}
	to, err := strconv.Atoi(args[0])
	if err != nil {
		fmt.Fprintln(out, "target partition must be a number")
		return
	}
	var slots []int
	for _, a := range args[1:] {
		sl, err := strconv.Atoi(a)
		if err != nil {
			fmt.Fprintf(out, "bad slot %q\n", a)
			return
		}
		slots = append(slots, sl)
	}
	start := time.Now()
	if err := sh.store.MoveSlots(slots, to); err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(out, "%d slot(s) moved to p%d in %v\n",
		len(slots), to, time.Since(start).Round(time.Millisecond))
}

func (sh *shell) cmdSlots(out io.Writer) {
	tbl := sh.store.SlotTable()
	if tbl == nil {
		fmt.Fprintf(out, "epoch 0 (static layout): %d partitions, slot s -> s mod %d\n",
			sh.store.Partitions(), sh.store.Partitions())
		return
	}
	fmt.Fprintf(out, "epoch %d: %d partitions\n", tbl.Epoch, tbl.Parts)
	for p := 0; p < tbl.Parts; p++ {
		fmt.Fprintf(out, "  p%d: %d slot(s)\n", p, len(tbl.SlotsOwnedBy(p)))
	}
}
