// Command pocccli is a line client for a pocckv server: it connects to one
// data center's port through a pooled binary front-door connection and
// forwards commands, printing replies.
//
// It types and prints the text encoding of the protocol (internal/wire) and
// speaks the binary one: each line is parsed into a request, sent as a frame,
// and the response frame is rendered as the lines a telnet session would
// have read. nc or telnet on the same port is the text client.
//
//	pocccli -addr 127.0.0.1:7070
//	> put user:1 ada
//	OK
//	> whereis user:1
//	PARTITION 3
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/client"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:7070", "pocckv data-center address")
	flag.Parse()

	pool, err := client.DialPool(client.PoolConfig{Addr: *addr, Conns: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer pool.Close()
	sess := pool.Session()
	if err := sess.Ping(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("connected to %s (binary front door)\n", *addr)

	stdin := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !stdin.Scan() {
			fmt.Println()
			return 0
		}
		line := strings.TrimSpace(stdin.Text())
		if line == "" {
			continue
		}
		reply, quit := sess.TextRoundTrip(nil, line)
		_, _ = os.Stdout.Write(reply)
		if quit {
			return 0
		}
	}
}
