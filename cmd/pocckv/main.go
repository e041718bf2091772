// Command pocckv runs a geo-replicated causal key-value store and serves it
// over TCP, one port per data center. Clients connect to "their" data
// center's port and speak either encoding of the protocol it serves: the
// pipelined binary front door (what cmd/pocccli and internal/client.Pool
// use — multiplexed sessions, out-of-order completion) or the same requests
// as text lines (PUT/GET/TX/STATS, documented in internal/wire; the admin
// commands in internal/kvserver) — type them into telnet or nc.
//
//	pocckv -engine pocc -dcs 3 -partitions 8 -port 7070
//
// binds ports 7070 (DC0), 7071 (DC1) and 7072 (DC2).
//
// With -data-dir and -max-dcs headroom the deployment is elastic: the JOIN
// admin command (or -join at startup) grows it by a data center that
// bootstraps its full history from the existing DCs' write-ahead logs and
// then serves on the next port, and LEAVE <dc> retires one, its history
// surviving on the remaining DCs.
//
// With -max-partitions headroom the keyspace is elastic too: SPLIT <p>
// grows every DC by one partition server, migrating half of partition p's
// hash slots (and their history) to it live, MOVESLOTS rebalances slots
// between existing partitions, and SLOTS shows the routing table.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	occ "repro"
	"repro/internal/kvserver"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		engineFlag = flag.String("engine", "pocc", "pocc, cure or hapocc")
		dcs        = flag.Int("dcs", 3, "number of data centers")
		partitions = flag.Int("partitions", 8, "partitions per data center")
		host       = flag.String("host", "127.0.0.1", "listen host")
		port       = flag.Int("port", 7070, "base port (one per DC)")
		latency    = flag.Float64("latency", 1.0, "AWS latency scale (1.0 = real geo delays)")
		tcp        = flag.Bool("internal-tcp", false, "run inter-node traffic over loopback TCP too")
		dataDir    = flag.String("data-dir", "", "enable durable WAL-backed storage rooted at this directory (empty = in-memory)")
		ckptBytes  = flag.Int64("checkpoint-bytes", 0, "WAL growth that arms a snapshot checkpoint (0 = 1 MiB, negative disables; needs -data-dir)")
		segBytes   = flag.Int64("segment-bytes", 0, "WAL segment roll size (0 = 4 MiB; needs -data-dir)")
		noSync     = flag.Bool("no-sync", false, "skip the per-commit fsync (faster, loses the latest commits on a machine crash)")
		ackMode    = flag.String("ack", "sync", "local PUT durability: sync (ack after group fsync) or grouped (ack after staging; fsync trails)")
		groupWin   = flag.Duration("group-commit-window", 0, "extra linger coalescing concurrent commits into one fsync (0 = pipeline batching only)")
		maxDCs     = flag.Int("max-dcs", 0, "DC-slot capacity for runtime joins via the JOIN admin command (0 = -dcs, fixed membership; needs -data-dir to join)")
		maxParts   = flag.Int("max-partitions", 0, "partition capacity for live keyspace splits via the SPLIT admin command (0 = -partitions, fixed layout)")
		join       = flag.Int("join", 0, "grow the deployment by this many DCs at startup through the membership protocol (needs -max-dcs headroom and -data-dir)")
	)
	flag.Parse()

	engine, err := occ.ParseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	var ack occ.AckMode
	switch strings.ToLower(*ackMode) {
	case "sync":
		ack = occ.AckSync
	case "grouped":
		ack = occ.AckGrouped
	default:
		fmt.Fprintf(os.Stderr, "unknown -ack mode %q (want sync or grouped)\n", *ackMode)
		return 2
	}

	cfg := occ.Config{
		DataCenters:       *dcs,
		Partitions:        *partitions,
		Engine:            engine,
		Seed:              uint64(time.Now().UnixNano()),
		TCP:               *tcp,
		DataDir:           *dataDir,
		CheckpointBytes:   *ckptBytes,
		SegmentBytes:      *segBytes,
		NoSync:            *noSync,
		AckMode:           ack,
		GroupCommitWindow: *groupWin,
		MaxDataCenters:    *maxDCs,
		MaxPartitions:     *maxParts,
	}
	if !*tcp {
		cfg.Latency = occ.AWSProfile(*latency)
	}
	store, err := occ.Open(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer store.Close()

	srv, err := kvserver.Serve(store, *host, *port)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer srv.Close()

	// -join exercises elastic membership at startup, one JOIN per DC.
	for i := 0; i < *join; i++ {
		dc, _, err := srv.Join()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("dc%d joined (bootstrapped via catch-up)\n", dc)
	}

	for dc := 0; dc < store.DataCenters(); dc++ {
		fmt.Printf("dc%d listening on %s\n", dc, srv.Addr(dc))
	}
	if *dataDir != "" {
		fmt.Printf("durable storage under %s\n", *dataDir)
	}
	fmt.Printf("engine=%s partitions=%d protocols=binary+text (Ctrl-C to stop)\n", engine, *partitions)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nshutting down")
	return 0
}
