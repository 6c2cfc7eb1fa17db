// Package harness runs the paper's experiments: it builds a simulated
// cluster running one of the three protocols, attaches closed-loop clients
// driving the benchmark workload, and measures throughput and latency over
// a virtual-time window — the methodology of §5.2 (Paxi benchmark, clients
// on unmetered machines, 1000-key uniform workload).
//
// Every runner (Run, RunScenario, RunOverload) brings its cluster up through
// one path (deploy.go); they differ only in the clients they attach and what
// they measure. An unsharded deployment is a sharded one with Shards = 1.
package harness

import (
	"fmt"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/epaxos"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/metrics"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/shard"
	"pigpaxos/internal/wire"
	"pigpaxos/internal/workload"
)

// Protocol selects the consensus protocol under test.
type Protocol int

// Protocols under evaluation.
const (
	Paxos Protocol = iota
	PigPaxos
	EPaxos
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case Paxos:
		return "Paxos"
	case PigPaxos:
		return "PigPaxos"
	case EPaxos:
		return "EPaxos"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Options describes one experiment run.
type Options struct {
	// Protocol picks the system under test.
	Protocol Protocol
	// N is the cluster size.
	N int
	// Shards partitions the key space across that many independent
	// consensus groups multiplexed over the N nodes (shard.Plan's layout;
	// Paxos and PigPaxos only). 0 and 1 both mean one unsharded group.
	Shards int
	// WAN spreads nodes over three regions (Figure 9); otherwise LAN.
	WAN bool
	// WANLossy additionally gives every WAN path its representative jitter
	// and loss (config.NewWAN3Lossy). Implies WAN. Only protocols with
	// retransmission machinery should run on it.
	WANLossy bool
	// Clients is the number of closed-loop clients.
	Clients int
	// Workload configures keys/read-ratio/payload (defaults: paper §5.2).
	Workload workload.Config
	// Warmup and Measure bound the measurement window of virtual time.
	Warmup  time.Duration
	Measure time.Duration
	// Seed drives all randomness; same seed ⇒ identical run.
	Seed int64
	// Net overrides the simulator cost model (zero → DefaultOptions).
	Net netsim.Options

	// BatchSize caps commands per log slot at the leader (≤1 = unbatched,
	// the paper's behaviour). Applies to Paxos and PigPaxos alike — the
	// relay plane forwards batched P2as transparently.
	BatchSize int
	// BatchDelay holds under-full batches open at the leader (0 = group
	// commit: batches form only while the pipeline window is full).
	BatchDelay time.Duration
	// MaxInFlight bounds uncommitted slots in flight at the leader
	// (pipelining window). Defaults to 4 when BatchSize > 1 — without a
	// window, closed-loop clients never let batches accumulate.
	MaxInFlight int

	// NumGroups is PigPaxos' r.
	NumGroups int
	// ZoneGroups uses one relay group per zone (WAN experiments).
	ZoneGroups bool
	// MutPig/MutPaxos/MutEPaxos allow per-experiment protocol tweaks.
	MutPig    func(*pigpaxos.Config)
	MutPaxos  func(*paxos.Config)
	MutEPaxos func(*epaxos.Config)

	// CrashNode (1-based node index), CrashAt and RecoverAt inject a
	// fault window (Figure 13). Zero CrashNode disables.
	CrashNode int
	CrashAt   time.Duration
	RecoverAt time.Duration

	// SluggishNode (1-based) runs one node with its CPU costs multiplied
	// by SluggishFactor for the whole run (§3.4's slow-node scenario and
	// the thrifty-Paxos fragility ablation).
	SluggishNode   int
	SluggishFactor float64

	// SampleWidth enables a throughput time series with that bucket
	// width (Figure 13 samples over 1-second intervals).
	SampleWidth time.Duration
}

func (o *Options) applyDefaults() {
	if o.N == 0 {
		o.N = 5
	}
	if o.Clients == 0 {
		o.Clients = 50
	}
	if o.Warmup == 0 {
		o.Warmup = 500 * time.Millisecond
	}
	if o.Measure == 0 {
		o.Measure = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Net == (netsim.Options{}) {
		o.Net = netsim.DefaultOptions()
	}
	if o.NumGroups == 0 {
		o.NumGroups = 3
	}
	if o.BatchSize > 1 && o.MaxInFlight == 0 {
		o.MaxInFlight = 4
	}
}

// cluster builds the topology the options select.
func (o *Options) cluster() config.Cluster {
	switch {
	case o.WANLossy:
		return config.NewWAN3Lossy(o.N)
	case o.WAN:
		return config.NewWAN3(o.N)
	default:
		return config.NewLAN(o.N)
	}
}

// paxosBatching applies the batching/pipelining knobs to a decision-core
// config. The knobs are independent: MaxInFlight alone gives pure bounded
// pipelining without batching. All-zero options keep the seed defaults.
func (o *Options) paxosBatching(cfg *paxos.Config) {
	if o.BatchSize > 1 {
		cfg.MaxBatchSize = o.BatchSize
	}
	cfg.BatchDelay = o.BatchDelay
	cfg.MaxInFlight = o.MaxInFlight
	// Closed-loop benchmark clients self-limit (one op in flight each), so
	// ingress admission control would only add Busy/retry latency noise to
	// the capacity curves Run measures. Lift the window-derived bound here;
	// overload experiments opt back in explicitly via MutPaxos/MutPig.
	cfg.MaxPending = -1
}

// Result is one experiment's measurement.
type Result struct {
	Protocol   Protocol
	N          int
	Clients    int
	Throughput float64 // completed requests/second within the window
	Latency    metrics.Summary
	Series     []metrics.Point // per-SampleWidth throughput, if enabled
	Messages   uint64          // network messages sent during the run
	// LeaderUtil and MeanFollowerUtil are CPU utilizations over the whole
	// run (busy time / wall time), reproducing the §6.1 observation that
	// the leader-follower utilization gap grows with the relay-group
	// count.
	LeaderUtil       float64
	MeanFollowerUtil float64
	// MeanBatchSize is commands per proposed slot at the leaders over the
	// whole run (1.0 unbatched, 0 for EPaxos which does not batch).
	MeanBatchSize float64
	// MsgsPerCmd is network messages sent cluster-wide per command
	// executed at the leaders — the amortization batching buys.
	MsgsPerCmd float64
	// PerShard splits the in-window acks by shard (one entry when
	// unsharded).
	PerShard []ShardLoad
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("%s N=%d clients=%d: %.0f req/s, lat %v (p99 %v)",
		r.Protocol, r.N, r.Clients, r.Throughput, r.Latency.Mean, r.Latency.P99)
}

// client is a closed-loop benchmark client: it keeps exactly one request in
// flight, issuing the next upon each reply — the paper's client model. Each
// op routes by key to its shard, with one at-most-once session (sequence
// counter) per shard.
type client struct {
	id   uint64
	ep   *netsim.Endpoint
	gen  *workload.Generator
	plan shard.Map
	// to is each shard's believed leader, re-aimed by redirects. Leaderless
	// protocols instead rotate ops over spread, starting at rr.
	to     []ids.ID
	spread []ids.ID
	rr     int
	seqs   []uint64

	cur       kvstore.Command
	curShard  int
	issuedAt  time.Duration
	warmupEnd time.Duration
	windowEnd time.Duration

	hist       *metrics.Histogram
	series     *metrics.TimeSeries
	completed  *metrics.Counter
	shardAcked []metrics.Counter
	stop       bool
}

func (c *client) next() {
	if c.stop {
		return
	}
	cmd := c.gen.Next(c.id, 0)
	k := c.plan.Router.Shard(cmd.Key)
	c.seqs[k]++
	cmd.Seq = c.seqs[k]
	c.cur, c.curShard = cmd, k
	c.issuedAt = c.ep.Now()
	to := c.to[k]
	if c.spread != nil {
		to = c.spread[c.rr%len(c.spread)]
		c.rr++
	}
	c.ep.Send(to, request(c.plan, k, cmd))
}

// OnMessage handles replies, redirects and Busy backpressure.
func (c *client) OnMessage(from ids.ID, m wire.Msg) {
	m, k := unwrap(m)
	if k != c.curShard {
		return
	}
	if busy, ok := m.(wire.Busy); ok {
		// Overloaded leader shed us: back off for the hinted interval, then
		// retry the same command (the rejected sequence number was not
		// consumed, so a retry is admitted as new).
		if busy.Seq != c.cur.Seq || c.stop {
			return
		}
		c.ep.After(busy.RetryAfter, func() {
			if busy.Seq != c.cur.Seq || k != c.curShard || c.stop {
				return
			}
			c.ep.Send(busy.Leader, request(c.plan, k, c.cur))
		})
		return
	}
	rep, ok := m.(wire.Reply)
	if !ok || rep.Seq != c.cur.Seq {
		return // stale reply from a retried request
	}
	if !rep.OK {
		// Redirected: retry the same command at the hinted leader.
		if !rep.Leader.IsZero() {
			c.to[k] = rep.Leader
			c.ep.Send(rep.Leader, request(c.plan, k, c.cur))
			return
		}
		c.next()
		return
	}
	now := c.ep.Now()
	if now >= c.warmupEnd && now < c.windowEnd {
		c.hist.Observe(now - c.issuedAt)
		c.completed.Inc()
		c.shardAcked[k].Inc()
		if c.series != nil {
			c.series.Record(now - c.warmupEnd)
		}
	} else if c.series != nil && now >= c.warmupEnd {
		c.series.Record(now - c.warmupEnd)
	}
	c.next()
}

// Run executes one experiment and returns its measurements.
func Run(opts Options) Result {
	opts.applyDefaults()
	d := deploy(&ScenarioOptions{Options: opts})
	sim, cc, net := d.sim, d.cc, d.net

	hist := metrics.NewHistogram()
	var completed metrics.Counter
	shardAcked := make([]metrics.Counter, d.plan.NumShards())
	var series *metrics.TimeSeries
	if opts.SampleWidth > 0 {
		series = metrics.NewTimeSeries(opts.SampleWidth)
	}
	warmupEnd := opts.Warmup
	windowEnd := opts.Warmup + opts.Measure

	// Paxos/PigPaxos clients talk to the leaders; EPaxos clients spread over
	// all replicas (§5.4: "a random node in EPaxos for each operation" —
	// round-robin per client gives the same aggregate mix
	// deterministically).
	clients := make([]*client, opts.Clients)
	for i := range clients {
		cl := &client{
			id:         uint64(i + 1),
			gen:        workload.New(opts.Workload, sim.Rand()),
			plan:       d.plan,
			to:         d.plan.Leaders(),
			seqs:       make([]uint64, d.plan.NumShards()),
			hist:       hist,
			series:     series,
			completed:  &completed,
			shardAcked: shardAcked,
			warmupEnd:  warmupEnd,
			windowEnd:  windowEnd,
		}
		if opts.Protocol == EPaxos {
			cl.spread = cc.Nodes
			cl.rr = i % len(cc.Nodes)
		}
		// Clients live in the leader's zone (the paper ran client VMs in
		// the same region as the cluster under test), with node numbers
		// far above any replica's.
		cl.ep = net.Register(ids.NewID(cc.ZoneOf(cc.Nodes[0]), 1000+i), cl, true)
		clients[i] = cl
	}

	d.start()
	// Stagger client starts over a few milliseconds to avoid a thundering
	// herd at t=0 (the real benchmark ramps up the same way).
	for i, cl := range clients {
		sim.Schedule(time.Duration(i)*50*time.Microsecond+time.Millisecond, cl.next)
	}

	if opts.SluggishNode > 0 && opts.SluggishNode <= len(cc.Nodes) && opts.SluggishFactor > 1 {
		net.SetSluggish(cc.Nodes[opts.SluggishNode-1], opts.SluggishFactor)
	}

	if opts.CrashNode > 0 && opts.CrashNode <= len(cc.Nodes) {
		victim := cc.Nodes[opts.CrashNode-1]
		sim.Schedule(opts.CrashAt, func() { net.Crash(victim) })
		if opts.RecoverAt > opts.CrashAt {
			sim.Schedule(opts.RecoverAt, func() { net.Recover(victim) })
		}
	}

	sim.Run(windowEnd)
	for _, cl := range clients {
		cl.stop = true
	}

	res := Result{
		Protocol:   opts.Protocol,
		N:          opts.N,
		Clients:    opts.Clients,
		Throughput: float64(completed.Value()) / opts.Measure.Seconds(),
		Latency:    hist.Snapshot(),
		Messages:   net.MessagesSent(),
	}
	// Batching metrics come from the leaders' decision cores; EPaxos has no
	// leader and reports zeroes.
	var pstats paxos.Stats
	for k, desc := range d.plan.Shards {
		if c := core(d.replicas[k][desc.Leader]); c != nil {
			st := c.Stats()
			pstats.Batches += st.Batches
			pstats.BatchedCmds += st.BatchedCmds
			pstats.Executions += st.Executions
		}
	}
	res.MeanBatchSize = pstats.MeanBatchSize()
	if pstats.Executions > 0 {
		res.MsgsPerCmd = float64(res.Messages) / float64(pstats.Executions)
	}
	wall := windowEnd.Seconds()
	res.LeaderUtil = net.Endpoint(cc.Nodes[0]).BusyTotal().Seconds() / wall
	var fsum float64
	for _, id := range cc.Nodes[1:] {
		fsum += net.Endpoint(id).BusyTotal().Seconds() / wall
	}
	if len(cc.Nodes) > 1 {
		res.MeanFollowerUtil = fsum / float64(len(cc.Nodes)-1)
	}
	if series != nil {
		res.Series = series.Series()
	}
	for k, desc := range d.plan.Shards {
		acked := int(shardAcked[k].Value())
		res.PerShard = append(res.PerShard, ShardLoad{
			Shard:      k,
			Leader:     desc.Leader,
			Acked:      acked,
			Throughput: float64(acked) / opts.Measure.Seconds(),
			LeaderUtil: net.Endpoint(desc.Leader).BusyTotal().Seconds() / wall,
		})
	}
	return res
}

// CurvePoint is one (offered load, throughput, latency) sample of a
// latency-throughput curve.
type CurvePoint struct {
	Clients    int
	Throughput float64
	LatencyMs  float64
	P99Ms      float64
}

// Curve sweeps client counts and returns the latency-throughput curve the
// paper plots in Figures 8-11.
func Curve(opts Options, clientCounts []int) []CurvePoint {
	out := make([]CurvePoint, 0, len(clientCounts))
	for _, c := range clientCounts {
		o := opts
		o.Clients = c
		r := Run(o)
		out = append(out, CurvePoint{
			Clients:    c,
			Throughput: r.Throughput,
			LatencyMs:  float64(r.Latency.Mean.Microseconds()) / 1000,
			P99Ms:      float64(r.Latency.P99.Microseconds()) / 1000,
		})
	}
	return out
}

// MaxThroughput sweeps client counts and returns the best observed
// throughput ("maximum throughput" in Figures 7, 12, 13).
func MaxThroughput(opts Options, clientCounts []int) float64 {
	best := 0.0
	for _, c := range clientCounts {
		o := opts
		o.Clients = c
		if tp := Run(o).Throughput; tp > best {
			best = tp
		}
	}
	return best
}

// DefaultClientSweep is the client-count ladder used by the sweeps.
var DefaultClientSweep = []int{10, 25, 50, 100, 200, 400}
