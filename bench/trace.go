package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"repro/internal/workload"
)

// span is one timed interval of the traced run. Start and End are
// nanoseconds since the run began; spans of one operation share OpID, and
// Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	OpID   uint64 `json:"op_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// maxSpansPerClient bounds the trace a client keeps (and the file written
// at exit) however long the window is.
const maxSpansPerClient = 1 << 14

// spanBuf is one goroutine's span store. When tracing is off every method
// is a no-op, so the untraced loop pays one predictable branch.
type spanBuf struct {
	on     bool
	client uint64
	start  time.Time
	spans  []span
}

func (r *runner) newSpanBuf(client int) *spanBuf {
	b := &spanBuf{on: r.traced, client: uint64(client), start: r.start}
	if b.on {
		b.spans = make([]span, 0, maxSpansPerClient)
	}
	return b
}

func (b *spanBuf) now() int64 {
	if !b.on {
		return 0
	}
	return int64(time.Since(b.start))
}

func (b *spanBuf) add(opID, parent uint64, name string, start, end int64) uint64 {
	id := b.client<<40 | uint64(len(b.spans)+1)
	b.spans = append(b.spans, span{ID: id, Parent: parent, OpID: opID, Name: name, Start: start, End: end})
	return id
}

var opSpanNames = map[workload.OpKind]string{
	workload.OpGet: "op.get", workload.OpPut: "op.put", workload.OpROTx: "op.rotx",
}

// op records a client operation: the root spans generation, call and
// bookkeeping; its child is the call into the session.
func (b *spanBuf) op(n uint64, kind workload.OpKind, rootStart, callStart, callEnd int64) {
	if !b.on || len(b.spans)+2 > maxSpansPerClient {
		return
	}
	opID := b.client<<40 | n
	root := b.add(opID, 0, opSpanNames[kind], rootStart, b.now())
	b.add(opID, root, "client.call", callStart, callEnd)
}

// probe records one visibility probe: PUT at DC 0, then the wait until the
// key reads at the far DC.
func (b *spanBuf) probe(n uint64, rootStart, acked, visible int64) {
	if !b.on || len(b.spans)+3 > maxSpansPerClient {
		return
	}
	opID := b.client<<40 | n
	root := b.add(opID, 0, "probe", rootStart, visible)
	b.add(opID, root, "probe.put", rootStart, acked)
	b.add(opID, root, "probe.wait_visible", acked, visible)
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
