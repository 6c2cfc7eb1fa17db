package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/node"
	"pigpaxos/internal/transport"
	"pigpaxos/internal/wal"
	"pigpaxos/internal/wire"
)

// spanOp names the boundary a span was recorded at.
type spanOp uint8

const (
	opBringUp spanOp = iota
	opPhase
	opScenario
	opRecv  // node.Handler.OnMessage
	opTimer // a node.Context.After callback
	opSend  // node.Context.Send
	opBcast // node.Context.Broadcast
	opWALAppend
	opWALSync
	opWALSnapshot
	opWALCompact
)

var opNames = [...]string{
	opBringUp: "bringup", opPhase: "phase", opScenario: "scenario",
	opRecv: "recv", opTimer: "timer", opSend: "send", opBcast: "broadcast",
	opWALAppend: "wal.append", opWALSync: "wal.sync",
	opWALSnapshot: "wal.snapshot", opWALCompact: "wal.compact",
}

// Spans of one command share an identifier where the message carries one.
const (
	idNone   uint8 = iota
	idClient       // client ID + seq (Request, Reply, Busy)
	idSlot         // log slot (P2a, P2b, P3 and the relay messages)
)

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; parent is the global ID of the enclosing span, -1 for none.
type span struct {
	start, end int64
	parent     int64
	id, id2    uint64
	label      string // phase or scenario label; empty on hot-path spans
	op         spanOp
	idKind     uint8
	mtype      wire.Type
}

// spanCap bounds the spans one buffer keeps, so a long traced run cannot
// exhaust memory; spans past it are counted, not stored. Metrics come
// from the counters, which see every call.
const spanCap = 1 << 15

// spanBuf is one goroutine's span store: the benchmark's own goroutine, or
// one node's event loop. It is never written by two goroutines at once.
type spanBuf struct {
	owner   int // 0 = benchmark, i+1 = node i
	spans   []span
	next    int64 // local index of the next span, stored or not
	dropped int
	cur     int64 // global ID of the open span nested calls hang under
}

func (b *spanBuf) gid(local int64) int64 { return int64(b.owner)<<40 | local }

// begin opens a span and makes it the parent of spans begun before its end.
func (b *spanBuf) begin(t *tracer, op spanOp, m wire.Msg, label string) (int64, time.Time) {
	now := time.Now()
	local := b.next
	b.next++
	s := span{start: int64(now.Sub(t.epoch)), parent: b.cur, op: op, label: label}
	if m != nil {
		s.mtype = m.Type()
		s.idKind, s.id, s.id2 = msgID(m)
	}
	if len(b.spans) < spanCap {
		b.spans = append(b.spans, s)
	} else {
		b.dropped++
	}
	prev := b.cur
	b.cur = b.gid(local)
	return prev, now
}

// end closes the span opened by the begin that returned prev and returns
// its duration.
func (b *spanBuf) end(t *tracer, prev int64, start time.Time) time.Duration {
	now := time.Now()
	local := b.cur & (1<<40 - 1)
	if local < int64(len(b.spans)) {
		b.spans[local].end = int64(now.Sub(t.epoch))
	}
	b.cur = prev
	return now.Sub(start)
}

func msgID(m wire.Msg) (uint8, uint64, uint64) {
	switch v := m.(type) {
	case wire.Request:
		return idClient, v.Cmd.ClientID, v.Cmd.Seq
	case wire.Reply:
		return idClient, v.ClientID, v.Seq
	case wire.Busy:
		return idClient, v.ClientID, v.Seq
	case wire.P2a:
		return idSlot, v.Slot, 0
	case wire.P2b:
		return idSlot, v.Slot, 0
	case wire.P3:
		return idSlot, v.Slot, 0
	case wire.RelayP2a:
		return idSlot, v.P2a.Slot, 0
	case wire.AggP2b:
		return idSlot, v.Slot, 0
	case wire.RelayP3:
		return idSlot, v.P3.Slot, 0
	}
	return idNone, 0, 0
}

// tracer owns every span buffer and per-node counter of one traced pass.
type tracer struct {
	epoch time.Time
	main  spanBuf
	nodes []*nodeTrace
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), main: spanBuf{cur: -1}}
}

// nodeTrace is one replica's counters and spans. Only that replica's
// event loop touches it once the replica has started; read it through
// the loop (see snapshot).
type nodeTrace struct {
	t   *tracer
	buf spanBuf
	layerCounts
	walSyncs []time.Duration // durations of Syncs that reached the disk
	scratch  []byte
}

// layerCounts are the additive counters a traced replica accumulates;
// a window's value is the difference of two snapshots.
type layerCounts struct {
	busy          time.Duration // inside OnMessage and timer callbacks
	stepN         [64]uint64    // OnMessage calls by wire type
	stepT         [64]time.Duration
	timerN        uint64
	timerT        time.Duration
	frames, bytes uint64
	appendN       uint64
	appendT       time.Duration
	syncN         uint64 // Syncs that reached the disk
	snapN         uint64
	snapT         time.Duration
	compactN      uint64
	compactT      time.Duration
}

func (c layerCounts) add(o layerCounts) layerCounts {
	c.busy += o.busy
	for i := range c.stepN {
		c.stepN[i] += o.stepN[i]
		c.stepT[i] += o.stepT[i]
	}
	c.timerN += o.timerN
	c.timerT += o.timerT
	c.frames += o.frames
	c.bytes += o.bytes
	c.appendN += o.appendN
	c.appendT += o.appendT
	c.syncN += o.syncN
	c.snapN += o.snapN
	c.snapT += o.snapT
	c.compactN += o.compactN
	c.compactT += o.compactT
	return c
}

func (c layerCounts) sub(o layerCounts) layerCounts {
	c.busy -= o.busy
	for i := range c.stepN {
		c.stepN[i] -= o.stepN[i]
		c.stepT[i] -= o.stepT[i]
	}
	c.timerN -= o.timerN
	c.timerT -= o.timerT
	c.frames -= o.frames
	c.bytes -= o.bytes
	c.appendN -= o.appendN
	c.appendT -= o.appendT
	c.syncN -= o.syncN
	c.snapN -= o.snapN
	c.snapT -= o.snapT
	c.compactN -= o.compactN
	c.compactT -= o.compactT
	return c
}

// mainSpan opens a span on the benchmark goroutine and returns the
// function that closes it. A nil tracer (an untraced pass) records nothing.
func (t *tracer) mainSpan(op spanOp, label string) func() {
	if t == nil {
		return func() {}
	}
	prev, start := t.main.begin(t, op, nil, label)
	return func() { t.main.end(t, prev, start) }
}

func (t *tracer) node(i int) *nodeTrace {
	nt := &nodeTrace{t: t, buf: spanBuf{owner: i + 1, cur: -1}}
	t.nodes = append(t.nodes, nt)
	return nt
}

// frameSize is the encoded size of m, computed with wire.Encode.
func (nt *nodeTrace) frameSize(m wire.Msg) uint64 {
	nt.scratch = wire.Encode(nt.scratch[:0], m)
	return uint64(len(nt.scratch))
}

// tracedHandler wraps the replica's node.Handler: one span and one step
// sample per delivered message.
type tracedHandler struct {
	h  node.Handler
	nt *nodeTrace
}

func (p *tracedHandler) OnMessage(from ids.ID, m wire.Msg) {
	prev, start := p.nt.buf.begin(p.nt.t, opRecv, m, "")
	p.h.OnMessage(from, m)
	d := p.nt.buf.end(p.nt.t, prev, start)
	p.nt.busy += d
	p.nt.stepN[m.Type()]++
	p.nt.stepT[m.Type()] += d
}

// tracedCtx wraps the node.Context a replica sends and schedules through.
// Broadcast is forwarded whole, so the transport still encodes once.
type tracedCtx struct {
	*transport.TCPNode
	nt *nodeTrace
}

func (c *tracedCtx) Send(to ids.ID, m wire.Msg) {
	prev, start := c.nt.buf.begin(c.nt.t, opSend, m, "")
	c.TCPNode.Send(to, m)
	c.nt.buf.end(c.nt.t, prev, start)
	c.nt.frames++
	c.nt.bytes += c.nt.frameSize(m)
}

func (c *tracedCtx) Broadcast(to []ids.ID, m wire.Msg) {
	prev, start := c.nt.buf.begin(c.nt.t, opBcast, m, "")
	c.TCPNode.Broadcast(to, m)
	c.nt.buf.end(c.nt.t, prev, start)
	c.nt.frames += uint64(len(to))
	c.nt.bytes += uint64(len(to)) * c.nt.frameSize(m)
}

func (c *tracedCtx) After(d time.Duration, fn func()) node.Timer {
	return c.TCPNode.After(d, func() {
		prev, start := c.nt.buf.begin(c.nt.t, opTimer, nil, "")
		fn()
		el := c.nt.buf.end(c.nt.t, prev, start)
		c.nt.busy += el
		c.nt.timerN++
		c.nt.timerT += el
	})
}

// tracedStorage wraps a replica's wal.Storage.
type tracedStorage struct {
	wal.Storage
	nt *nodeTrace
}

func (s *tracedStorage) Append(rec wal.Record) error {
	prev, start := s.nt.buf.begin(s.nt.t, opWALAppend, nil, "")
	err := s.Storage.Append(rec)
	s.nt.appendT += s.nt.buf.end(s.nt.t, prev, start)
	s.nt.appendN++
	return err
}

func (s *tracedStorage) Sync() (bool, error) {
	prev, start := s.nt.buf.begin(s.nt.t, opWALSync, nil, "")
	synced, err := s.Storage.Sync()
	d := s.nt.buf.end(s.nt.t, prev, start)
	if synced {
		s.nt.syncN++
		s.nt.walSyncs = append(s.nt.walSyncs, d)
	}
	return synced, err
}

func (s *tracedStorage) SaveSnapshot(snap wal.Snapshot) error {
	prev, start := s.nt.buf.begin(s.nt.t, opWALSnapshot, nil, "")
	err := s.Storage.SaveSnapshot(snap)
	s.nt.snapT += s.nt.buf.end(s.nt.t, prev, start)
	s.nt.snapN++
	return err
}

func (s *tracedStorage) CompactTo(floor uint64) int {
	prev, start := s.nt.buf.begin(s.nt.t, opWALCompact, nil, "")
	n := s.Storage.CompactTo(floor)
	s.nt.compactT += s.nt.buf.end(s.nt.t, prev, start)
	s.nt.compactN++
	return n
}

// write dumps every stored span as tab-separated lines:
// id, parent, owner, op, message type, id kind, id, id2, start ns, end ns,
// label. It is called once the traced pass has stopped every node.
func (t *tracer) write(path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\towner\top\tmsg\tidkind\tid\tid2\tstart_ns\tend_ns\tlabel")
	bufs := []*spanBuf{&t.main}
	for _, nt := range t.nodes {
		bufs = append(bufs, &nt.buf)
	}
	n, dropped := 0, 0
	for _, b := range bufs {
		dropped += b.dropped
		for i, s := range b.spans {
			msg := "-"
			if s.mtype != 0 {
				msg = s.mtype.String()
			}
			label := s.label
			if label == "" {
				label = "-"
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%s\n",
				b.gid(int64(i)), s.parent, b.owner, opNames[s.op], msg,
				s.idKind, s.id, s.id2, s.start, s.end, label)
			n++
		}
	}
	if dropped > 0 {
		fmt.Fprintf(w, "# %d spans past the per-buffer cap of %d were counted, not stored\n", dropped, spanCap)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

// traceFiles makes the directory a traced run writes into.
func traceFiles(cfg runConfig) (string, error) {
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
