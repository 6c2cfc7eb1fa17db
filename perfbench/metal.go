package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pigpaxos/internal/cluster"
	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/loadgen"
	"pigpaxos/internal/node"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/transport"
	"pigpaxos/internal/wal"
	"pigpaxos/internal/wire"
	"pigpaxos/internal/workload"
)

// metalSpec is one real-socket workload: a cluster shape configured like
// cmd/pigserver's defaults, and the open-loop traffic loaded on it.
type metalSpec struct {
	n        int
	protocol string // paxos | pigpaxos
	groups   int
	batch    int
	inflight int
	durable  bool // every replica journals to its own wal.MemStorage
	wl       workload.Config
	lowRate  float64
	highRate float64
	solo     bool // the traced run adds a single-node phase at lowRate
}

var (
	pig5 = metalSpec{
		n: 5, protocol: "pigpaxos", groups: 2, batch: 16, inflight: 4,
		wl:      workload.Config{Keys: 1000, ReadRatio: 0.5, PayloadSize: 8},
		lowRate: 2000, highRate: 10000, solo: true,
	}
	paxos3WAL = metalSpec{
		n: 3, protocol: "paxos", batch: 16, inflight: 4, durable: true,
		wl:      workload.Config{Keys: 1000, PayloadSize: 256}.WriteOnly(),
		lowRate: 2000, highRate: 6000,
	}
)

const (
	workers      = 2 // loadgen workers: one per core of the reference box
	setupRepeats = 9 // bring-ups per run; setup_s is their median
	windowLen    = time.Second
	lowShare     = 0.3 // share of the measured seconds at the low rate
	readyTimeout = 10 * time.Second
	// A fault-free loopback cluster loses no messages, so the client
	// retries late (loadgen's default is 250 ms). A retry rotates targets
	// every third attempt and drops replies in flight on the old
	// connection, which turns a slow fsync into a failed op; with this
	// interval a stall shows as latency instead.
	retryInterval = time.Second
	opTimeout     = 5 * time.Second
	// maxInFlight lets a worker queue a few seconds of arrivals (loadgen's
	// default of 1024 is 200 ms at 5k/s per worker), so a host stall shows
	// as latency rather than as shed ops.
	maxInFlight = 1 << 15
	// Client IDs of the benchmark's own synchronous checks, far above the
	// loadgen bases and below cluster.WaitReady's probe range (1<<62).
	sentinelClient = uint64(1) << 61
	sentinelKey    = uint64(1) << 40 // outside the workload's 1000 keys
)

type metalNode struct {
	tn   *transport.TCPNode
	core *paxos.Replica
	pig  *pigpaxos.Replica // nil under Multi-Paxos
	nt   *nodeTrace        // nil when untraced
}

type metalCluster struct {
	spec       metalSpec
	members    []ids.ID
	addrs      map[ids.ID]string
	nodes      []*metalNode
	nextClient uint64 // next loadgen ClientIDBase: every window gets fresh sessions
}

// handlerProxy lets the transport exist before the replica it delivers
// to, exactly as cmd/pigserver wires it.
type handlerProxy struct{ h node.Handler }

func (p *handlerProxy) OnMessage(from ids.ID, m wire.Msg) { p.h.OnMessage(from, m) }

// bringUp starts spec's cluster on ephemeral loopback ports and returns
// once cluster.WaitReady has seen an OK read. With tr set, every replica
// is built over the traced Handler, Context and Storage wrappers.
func bringUp(spec metalSpec, tr *tracer) (*metalCluster, time.Duration, error) {
	start := time.Now()
	c := &metalCluster{
		spec: spec, members: cluster.Members(spec.n),
		addrs: make(map[ids.ID]string), nextClient: 1,
	}
	cc := config.Cluster{Nodes: c.members}
	var starts []func()
	for i, id := range c.members {
		mn := &metalNode{}
		c.nodes = append(c.nodes, mn)
		var (
			setHandler func(node.Handler)
			handler    node.Handler
		)
		if tr != nil {
			mn.nt = tr.node(i)
			th := &tracedHandler{nt: mn.nt}
			handler, setHandler = th, func(h node.Handler) { th.h = h }
		} else {
			hp := &handlerProxy{}
			handler, setHandler = hp, func(h node.Handler) { hp.h = h }
		}
		// Each node gets its own address map: TCPNode guards it with the
		// node's mutex.
		tn, err := transport.ListenTCP(id, "127.0.0.1:0", make(map[ids.ID]string), handler)
		if err != nil {
			c.close()
			return nil, 0, err
		}
		mn.tn = tn
		c.addrs[id] = tn.Addr()
		var ctx node.Context = tn
		if mn.nt != nil {
			ctx = &tracedCtx{TCPNode: tn, nt: mn.nt}
		}
		var st wal.Storage
		if spec.durable {
			st = wal.NewMem()
			if mn.nt != nil {
				st = &tracedStorage{Storage: st, nt: mn.nt}
			}
		}
		// cmd/pigserver's defaults.
		base := paxos.Config{
			Cluster: cc, ID: id, InitialLeader: c.members[0],
			ElectionTimeout: 2 * time.Second,
			ReadMode:        paxos.ReadLog,
			RetryTimeout:    250 * time.Millisecond,
			CompactEvery:    4096,
			Storage:         st,
			SnapshotEvery:   4096,
			MaxBatchSize:    spec.batch,
			MaxInFlight:     spec.inflight,
		}
		var startFn func()
		switch spec.protocol {
		case "paxos":
			r := paxos.New(ctx, base, nil)
			mn.core, startFn = r, r.Start
			setHandler(r)
		case "pigpaxos":
			r := pigpaxos.New(ctx, pigpaxos.Config{
				Paxos: base, NumGroups: spec.groups, RelayTimeout: 50 * time.Millisecond,
			})
			mn.core, mn.pig, startFn = r.Core(), r, r.Start
			setHandler(r)
		default:
			c.close()
			return nil, 0, fmt.Errorf("unknown protocol %q", spec.protocol)
		}
		starts = append(starts, startFn)
	}
	// Every node learns every address before any replica starts, as with
	// cmd/pigserver's -cluster list; the initial leader's first phase-1
	// would otherwise go nowhere until its election timeout.
	for i, mn := range c.nodes {
		for id, a := range c.addrs {
			mn.tn.RegisterAddr(id, a)
		}
		mn.tn.After(0, starts[i]) // Start on the node's event loop
	}
	if err := cluster.WaitReady(c.addrs, c.members, readyTimeout); err != nil {
		c.close()
		return nil, 0, err
	}
	return c, time.Since(start), nil
}

// close stops every node; TCPNode.Close waits for its goroutines.
func (c *metalCluster) close() {
	for _, mn := range c.nodes {
		if mn.tn != nil {
			mn.tn.Close()
		}
	}
}

// onLoop runs fn on tn's event loop and returns its result, so replica
// state owned by the loop is read without a race.
func onLoop[T any](tn *transport.TCPNode, fn func() T) (T, error) {
	ch := make(chan T, 1)
	tn.After(0, func() { ch <- fn() })
	select {
	case v := <-ch:
		return v, nil
	case <-time.After(5 * time.Second):
		var zero T
		return zero, fmt.Errorf("event loop of %v did not answer within 5s", tn.ID())
	}
}

func (c *metalCluster) leaderApplied() (uint64, error) {
	l := c.nodes[0]
	return onLoop(l.tn, func() uint64 { return l.core.Store().Applied() })
}

// window is one loadgen.Run call: its result, and the process CPU and the
// commands the leader applied (warmup and drain included) while it ran.
type window struct {
	res     *loadgen.Result
	cpu     time.Duration
	applied uint64
}

func (c *metalCluster) load(rate float64, dur, warmup time.Duration, seed int64) (window, error) {
	a0, err := c.leaderApplied()
	if err != nil {
		return window{}, err
	}
	cpu0 := cpuTime()
	res, err := loadgen.Run(loadgen.Options{
		Addrs: c.addrs, Members: c.members, Clients: workers, Rate: rate,
		Warmup: warmup, Duration: dur, Workload: c.spec.wl, Seed: seed,
		ClientIDBase: c.nextClient, ClientIDBaseSet: true,
		Timeout: opTimeout, RetryInterval: retryInterval, MaxInFlight: maxInFlight,
	})
	c.nextClient += workers
	if err != nil {
		return window{}, err
	}
	cpu := cpuTime() - cpu0
	a1, err := c.leaderApplied()
	if err != nil {
		return window{}, err
	}
	return window{res: res, cpu: cpu, applied: a1 - a0}, nil
}

// phase runs total at rate as consecutive one-second windows. Each
// window's percentiles are exact (at most 15k completions, under
// metrics.Histogram's 65,536 raw samples), and the medians over windows
// that the metrics report are not swung by one rare stall.
func (c *metalCluster) phase(rate float64, total time.Duration, seed *int64) ([]window, error) {
	k := max(1, int(math.Round(total.Seconds()/windowLen.Seconds())))
	var ws []window
	for i := 0; i < k; i++ {
		warmup := 100 * time.Millisecond
		if i == 0 {
			warmup = 500 * time.Millisecond
		}
		*seed++
		w, err := c.load(rate, total/time.Duration(k), warmup, *seed)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// sentinel writes and reads back one key through cluster.SyncClient.
func (c *metalCluster) sentinel(seed int64) error {
	cl := cluster.NewSyncClient(c.addrs, c.members[0], sentinelClient, 2*time.Second)
	defer cl.Close()
	val := []byte(fmt.Sprintf("perfbench-sentinel-%d", seed))
	rep, err := cl.Put(sentinelKey, val)
	if err != nil {
		return fmt.Errorf("put: %w", err)
	}
	if !rep.OK {
		return fmt.Errorf("put rejected: %+v", rep)
	}
	rep, err = cl.Get(sentinelKey)
	if err != nil {
		return fmt.Errorf("get: %w", err)
	}
	if !rep.OK || !rep.Exists || !bytes.Equal(rep.Value, val) {
		return fmt.Errorf("get returned %+v, want %q", rep, val)
	}
	return nil
}

// converged waits until every replica's Applied and Checksum, each read on
// its own loop, agree.
func (c *metalCluster) converged() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		states := make([][2]uint64, len(c.nodes))
		same := true
		for i, mn := range c.nodes {
			st, err := onLoop(mn.tn, func() [2]uint64 {
				s := mn.core.Store()
				return [2]uint64{s.Applied(), s.Checksum()}
			})
			if err != nil {
				return err
			}
			states[i] = st
			same = same && st == states[0]
		}
		if same {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas disagree on (applied, checksum): %v", states)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// metalPass is one bring-up-load-check-teardown cycle.
type metalPass struct {
	setups    []time.Duration
	low, high []window
	layers    *layerWindow // traced passes only
}

func runMetalPass(cfg runConfig, spec metalSpec, seconds float64, tr *tracer, out *outcome) (*metalPass, error) {
	p := &metalPass{}
	repeats := setupRepeats
	if tr != nil {
		repeats = 1
	}
	var c *metalCluster
	for i := 0; i < repeats; i++ {
		end := tr.mainSpan(opBringUp, fmt.Sprintf("%d-node %s", spec.n, spec.protocol))
		nc, d, err := bringUp(spec, tr)
		end()
		if err != nil {
			return nil, fmt.Errorf("bring-up: %w", err)
		}
		p.setups = append(p.setups, d)
		if c != nil {
			c.close()
		}
		c = nc
	}
	defer c.close()

	total := time.Duration(seconds * float64(time.Second))
	lowDur := time.Duration(float64(total) * lowShare)
	seed := cfg.seed * 1_000_003
	var lw *layerWindow
	if tr != nil {
		var err error
		if lw, err = startLayers(c, tr); err != nil {
			return nil, err
		}
	}
	for _, ph := range []struct {
		label string
		rate  float64
		dur   time.Duration
		dst   *[]window
	}{
		{"low", spec.lowRate, lowDur, &p.low},
		{"high", spec.highRate, total - lowDur, &p.high},
	} {
		end := tr.mainSpan(opPhase, fmt.Sprintf("%s %.0f/s", ph.label, ph.rate))
		ws, err := c.phase(ph.rate, ph.dur, &seed)
		end()
		logPhase(ph.label, ph.rate, ws)
		if err != nil {
			if lw != nil {
				lw.stopProbes()
			}
			return nil, fmt.Errorf("%s phase: %w", ph.label, err)
		}
		*ph.dst = ws
	}
	if lw != nil {
		if err := lw.finish(c); err != nil {
			return nil, err
		}
		p.layers = lw
	}
	pass := fmt.Sprintf("%d-node %s", spec.n, spec.protocol)
	if tr != nil {
		pass += ", traced"
	}
	out.check("sentinel put/get round trip ("+pass+")", c.sentinel(cfg.seed))
	out.check("replicas agree on applied count and checksum ("+pass+")", c.converged())
	for _, w := range p.windows() {
		out.attempted += w.res.Offered
		out.failed += w.res.Shed + w.res.Timeouts
	}
	return p, nil
}

func (p *metalPass) windows() []window { return append(append([]window(nil), p.low...), p.high...) }

// logPhase prints a phase's loadgen totals to stderr.
func logPhase(label string, rate float64, ws []window) {
	var t loadgen.Result
	for _, w := range ws {
		t.Offered += w.res.Offered
		t.Completed += w.res.Completed
		t.Shed += w.res.Shed
		t.Timeouts += w.res.Timeouts
		t.Busy += w.res.Busy
		t.Redirects += w.res.Redirects
		t.Resends += w.res.Resends
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s %.0f/s over %d windows: offered %d completed %d shed %d timeout %d busy %d redirect %d resend %d\n",
		label, rate, len(ws), t.Offered, t.Completed, t.Shed, t.Timeouts, t.Busy, t.Redirects, t.Resends)
}

// latency returns the median over windows of a percentile, and the
// sample count behind it.
func latency(ws []window, pick func(*loadgen.Result) time.Duration) (float64, int) {
	var vs []float64
	n := 0
	for _, w := range ws {
		vs = append(vs, ms(pick(w.res)))
		n += int(w.res.Latency.Count)
	}
	return median(vs), n
}

func p50(r *loadgen.Result) time.Duration  { return r.Latency.P50 }
func p99(r *loadgen.Result) time.Duration  { return r.Latency.P99 }
func p999(r *loadgen.Result) time.Duration { return r.Latency.P999 }

// cpuPerOp is the median over windows of process CPU per command the
// leader applied, in µs.
func cpuPerOp(ws []window) float64 {
	var vs []float64
	for _, w := range ws {
		vs = append(vs, ratio(us(w.cpu), float64(w.applied)))
	}
	return median(vs)
}

func (p *metalPass) endToEnd(out *outcome) {
	var setups []float64
	for _, d := range p.setups {
		setups = append(setups, d.Seconds())
	}
	out.addN("setup_s", median(setups), "s", len(setups))
	v, n := latency(p.low, p50)
	out.addN("p50_ms_low", v, "ms", n)
	v, n = latency(p.high, p50)
	out.addN("p50_ms_high", v, "ms", n)
	var done, offered, lost uint64
	var secs float64
	for _, w := range p.high {
		done += w.res.Completed
		secs += w.res.Elapsed.Seconds()
	}
	for _, w := range p.windows() {
		offered += w.res.Offered
		lost += w.res.Shed + w.res.Timeouts
	}
	out.add("goodput_ops_s", ratio(float64(done), secs), "ops/s")
	out.add("ok_frac", 1-ratio(float64(lost), float64(offered)), "frac")
	out.add("cpu_us_per_op", cpuPerOp(p.high), "us")
}

func runMetal(cfg runConfig, spec metalSpec) (*outcome, error) {
	out := &outcome{}
	if !cfg.trace {
		p, err := runMetalPass(cfg, spec, cfg.seconds, nil, out)
		if err != nil {
			return nil, err
		}
		p.endToEnd(out)
		return out, nil
	}

	// Traced run: an untraced pass for the overhead baseline (and the
	// single-node phase), then the traced pass, each over half the time.
	half := cfg.seconds / 2
	base, err := runMetalPass(cfg, spec, half, nil, out)
	if err != nil {
		return nil, err
	}
	var solo []window
	if spec.solo {
		one := spec
		one.n, one.protocol = 1, "paxos"
		c, _, err := bringUp(one, nil)
		if err != nil {
			return nil, fmt.Errorf("single-node bring-up: %w", err)
		}
		seed := cfg.seed*1_000_003 + 500_000
		solo, err = c.phase(spec.lowRate, time.Duration(half*lowShare*float64(time.Second)), &seed)
		c.close()
		if err != nil {
			return nil, fmt.Errorf("single-node phase: %w", err)
		}
	}
	dir, err := traceFiles(cfg)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	prof, err := startProfile(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	traced, err := runMetalPass(cfg, spec, half, tr, out)
	if perr := prof.stop(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	if err := writeSpans(tr, dir); err != nil {
		return nil, err
	}
	if err := addProfile(out, prof); err != nil {
		return nil, err
	}

	lw := traced.layers
	ops := float64(lw.applied)
	out.add("loadgen.sched_lag_p99_ms", percentileMS(lw.lags, 99), "ms")
	var busy, resends, completed, offered, lost uint64
	for _, w := range traced.windows() {
		busy += w.res.Busy
		resends += w.res.Resends
		completed += w.res.Completed
		offered += w.res.Offered
		lost += w.res.Shed + w.res.Timeouts
	}
	out.add("loadgen.busy_per_op", ratio(float64(busy), float64(completed)), "count")
	out.add("loadgen.resends_per_op", ratio(float64(resends), float64(completed)), "count")
	out.add("loadgen.fail_frac", ratio(float64(lost), float64(offered)), "frac")
	v, n := latency(traced.low, p99)
	out.addN("loadgen.p99_ms_low", v, "ms", n)
	v, n = latency(traced.high, p99)
	out.addN("loadgen.p99_ms_high", v, "ms", n)
	v, n = latency(traced.high, p999)
	out.addN("loadgen.p999_ms_high", v, "ms", n)

	var relayBusy float64
	var steps layerCounts // every node's counts summed
	for i, d := range lw.deltas {
		steps = steps.add(d)
		if i > 0 {
			relayBusy = math.Max(relayBusy, ratio(float64(d.busy), float64(lw.wall)))
		}
	}
	out.add("transport.frames_per_op", ratio(float64(steps.frames), ops), "count")
	out.add("transport.leader_frames_per_op", ratio(float64(lw.deltas[0].frames), ops), "count")
	out.add("transport.bytes_per_op", ratio(float64(steps.bytes), ops), "B")
	out.add("node.busy_frac.leader", ratio(float64(lw.deltas[0].busy), float64(lw.wall)), "frac")
	out.add("node.busy_frac.relay_max", relayBusy, "frac")
	for _, k := range stepKinds {
		out.add("node.step_us."+k.String(), ratio(us(steps.stepT[k]), float64(steps.stepN[k])), "us")
	}
	out.add("node.timer_us", ratio(us(steps.timerT), float64(steps.timerN)), "us")

	ls := lw.stats[0]
	out.add("paxos.batch_mean", ratio(float64(ls.BatchedCmds), float64(ls.Batches)), "count")
	out.add("paxos.queue_depth_max", float64(lw.queueMax), "count")
	out.add("paxos.commit_ewma_ms", lw.ewmaMeanMS(), "ms")
	out.add("paxos.busy", float64(ls.Busy), "count")
	var full, partial, late uint64
	for _, s := range lw.pig {
		full += s.FullFlushes
		partial += s.PartialFlushes
		late += s.LateVotes
	}
	out.add("pigpaxos.full_flush_frac", ratio(float64(full), float64(full+partial)), "frac")
	out.add("pigpaxos.late_votes", float64(late), "count")
	out.add("pigpaxos.leader_retries", float64(lw.pig[0].LeaderRetries), "count")

	out.add("wal.sync_ms_p50", percentileMS(lw.syncs, 50), "ms")
	out.add("wal.sync_ms_p99", percentileMS(lw.syncs, 99), "ms")
	out.add("wal.syncs_per_op", ratio(float64(steps.syncN), ops), "count")
	out.add("wal.append_us", ratio(us(steps.appendT), float64(steps.appendN)), "us")
	out.add("wal.snapshot_ms", ratio(ms(steps.snapT), float64(steps.snapN)), "ms")
	out.add("wal.compact_ms", ratio(ms(steps.compactT), float64(steps.compactN)), "ms")

	soloP50, _ := latency(solo, p50)
	out.add("solo.p50_ms", soloP50, "ms")
	out.add("solo.cpu_us_per_op", cpuPerOp(solo), "us")
	out.add("trace.overhead_frac", ratio(cpuPerOp(traced.high), cpuPerOp(base.high))-1, "frac")
	return out, nil
}

// stepKinds are the message types whose handler step time is reported.
var stepKinds = []wire.Type{
	wire.TRequest, wire.TP2a, wire.TP2b, wire.TP3,
	wire.TRelayP2a, wire.TAggP2b, wire.TRelayP3, wire.THeartbeat,
}

// layerWindow collects a traced pass's per-layer inputs between the start
// and the end of its load.
type layerWindow struct {
	begin    []loopState
	deltas   []layerCounts
	stats    []paxos.Stats    // per node, over the window
	pig      []pigpaxos.Stats // per node (zero under Multi-Paxos)
	syncs    []time.Duration  // WAL syncs that reached the disk
	applied  uint64           // commands the leader applied
	wall     time.Duration
	started  time.Time
	lags     []time.Duration // lateness of the 1 ms probe ticker
	queueMax int
	ewmaSum  time.Duration
	ewmaN    int

	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex // guards lags, queueMax, ewma* while probes run
}

// loopState is what one node's loop reports for a layer snapshot.
type loopState struct {
	counts  layerCounts
	syncs   int
	stats   paxos.Stats
	pig     pigpaxos.Stats
	applied uint64
}

func snapshot(mn *metalNode) (loopState, error) {
	return onLoop(mn.tn, func() loopState {
		s := loopState{
			counts:  mn.nt.layerCounts,
			syncs:   len(mn.nt.walSyncs),
			stats:   mn.core.Stats(),
			applied: mn.core.Store().Applied(),
		}
		if mn.pig != nil {
			s.pig = mn.pig.Stats()
		}
		return s
	})
}

// startLayers snapshots every node and starts the scheduler-lag probe and
// the leader queue sampler.
func startLayers(c *metalCluster, tr *tracer) (*layerWindow, error) {
	lw := &layerWindow{stop: make(chan struct{})}
	for _, mn := range c.nodes {
		s, err := snapshot(mn)
		if err != nil {
			return nil, err
		}
		lw.begin = append(lw.begin, s)
	}
	lw.started = time.Now()
	lw.wg.Add(2)
	go func() { // lateness of a 1 ms ticker: contention for the box's cores
		defer lw.wg.Done()
		next := time.Now()
		for {
			next = next.Add(time.Millisecond)
			select {
			case <-lw.stop:
				return
			case <-time.After(time.Until(next)):
			}
			lag := time.Since(next)
			lw.mu.Lock()
			lw.lags = append(lw.lags, lag)
			lw.mu.Unlock()
			if lag > time.Millisecond {
				next = time.Now() // do not burst to catch up
			}
		}
	}()
	leader := c.nodes[0]
	go func() { // leader ingress queue and commit EWMA, read on its loop
		defer lw.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-lw.stop:
				return
			case <-tick.C:
			}
			v, err := onLoop(leader.tn, func() [2]int64 {
				return [2]int64{int64(leader.core.QueueDepth()), int64(leader.core.CommitLatencyEWMA())}
			})
			if err != nil {
				continue
			}
			lw.mu.Lock()
			lw.queueMax = max(lw.queueMax, int(v[0]))
			lw.ewmaSum += time.Duration(v[1])
			lw.ewmaN++
			lw.mu.Unlock()
		}
	}()
	return lw, nil
}

func (lw *layerWindow) stopProbes() {
	close(lw.stop)
	lw.wg.Wait()
}

// finish stops the probes and takes the closing snapshot.
func (lw *layerWindow) finish(c *metalCluster) error {
	lw.stopProbes()
	lw.wall = time.Since(lw.started)
	for i, mn := range c.nodes {
		s, err := snapshot(mn)
		if err != nil {
			return err
		}
		b := lw.begin[i]
		lw.deltas = append(lw.deltas, s.counts.sub(b.counts))
		lw.stats = append(lw.stats, subStats(s.stats, b.stats))
		lw.pig = append(lw.pig, pigpaxos.Stats{
			FullFlushes:    s.pig.FullFlushes - b.pig.FullFlushes,
			PartialFlushes: s.pig.PartialFlushes - b.pig.PartialFlushes,
			LateVotes:      s.pig.LateVotes - b.pig.LateVotes,
			LeaderRetries:  s.pig.LeaderRetries - b.pig.LeaderRetries,
		})
		syncs, err := onLoop(mn.tn, func() []time.Duration {
			return append([]time.Duration(nil), mn.nt.walSyncs[b.syncs:s.syncs]...)
		})
		if err != nil {
			return err
		}
		lw.syncs = append(lw.syncs, syncs...)
		if i == 0 {
			lw.applied = s.applied - b.applied
		}
	}
	return nil
}

func (lw *layerWindow) ewmaMeanMS() float64 {
	if lw.ewmaN == 0 {
		return 0
	}
	return ms(lw.ewmaSum / time.Duration(lw.ewmaN))
}

func subStats(a, b paxos.Stats) paxos.Stats {
	return paxos.Stats{
		Batches:     a.Batches - b.Batches,
		BatchedCmds: a.BatchedCmds - b.BatchedCmds,
		Busy:        a.Busy - b.Busy,
	}
}
