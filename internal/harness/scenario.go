// Scenario harness: runs a protocol under a chaos fault schedule and checks
// what the steady-state harness only assumes — that the cluster stays
// available (bounded gap), recovers fully (every acknowledged command
// committed and replicas converged), and never serves a non-linearizable
// history. This is the paper's §4/§5 fault-tolerance story (relay rotation,
// leader re-fan-out, failover) as a reproducible, measured experiment
// instead of a comment.
package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/epaxos"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/linearizability"
	"pigpaxos/internal/metrics"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/node"
	"pigpaxos/internal/shard"
	"pigpaxos/internal/wire"
)

// maxOpsPerKey bounds how many operations may land on one probe key: the
// linearizability checker's per-key search is exponential in overlapping
// ops and hard-capped at 24.
const maxOpsPerKey = 12

// ScenarioOptions parameterize one chaos scenario run. The embedded Options
// configure the cluster exactly as Run does; scenario clients replace the
// open-ended closed-loop clients with fixed-length recorded scripts so every
// history can be checked.
type ScenarioOptions struct {
	Options

	// OpsPerClient is each client's script length (default 30).
	OpsPerClient int
	// ThinkTime paces clients: each waits this long between an ack and its
	// next operation, so scripts span the whole window and faults land on
	// live traffic. Defaults to Measure/OpsPerClient (script ≈ window);
	// negative disables pacing.
	ThinkTime time.Duration
	// ProbeKeys is the scenario keyspace size. Defaulted so no key sees
	// more than maxOpsPerKey operations; explicit values are raised back
	// to that floor.
	ProbeKeys int
	// ClientRetry is how long a client waits for a reply before re-sending
	// its command to the next node of the op's shard (masking
	// crashed leaders — or crashed EPaxos command leaders — and lost
	// messages; every protocol's replicated at-most-once session table
	// absorbs the duplicates). Defaults to 120ms.
	ClientRetry time.Duration
	// ElectionTimeout arms follower elections so leader crashes actually
	// fail over (default 150ms; ignored by EPaxos).
	ElectionTimeout time.Duration
	// Drain is extra virtual time after the measurement window for scripts
	// to finish and replicas to converge (default 5s).
	Drain time.Duration
	// RegionClients homes clients round-robin across the cluster's zones
	// instead of packing them into the leader's (the paper's WAN runs place
	// client VMs in every region). Each region's latency and availability
	// are then reported separately in ScenarioResult.Regions — and a
	// RegionPartition maroons the cut region's clients along with its
	// replicas.
	RegionClients bool
	// Durable gives every Paxos/PigPaxos replica (one per hosted shard) a
	// wal.MemStorage journal: promises and accepts fsync before the
	// corresponding vote leaves, snapshots checkpoint the state machine, and
	// the Restart/TornTail/DiskSlow chaos families go live (only durable
	// deployments implement chaos.Rebooter and chaos.DiskFaulter). EPaxos
	// has no durable path, so restart actions against it skip
	// deterministically.
	Durable bool
	// SnapshotEvery is the per-replica checkpoint cadence in executed
	// commands (default 64 when Durable).
	SnapshotEvery int
	// SyncCost is the simulated fsync latency charged per real journal sync
	// (default 400µs when Durable — an EBS-class flush).
	SyncCost time.Duration
	// Jobs is how many scenarios RunScenarios executes concurrently:
	// 0 means GOMAXPROCS, 1 forces the serial path. Every run is an
	// isolated deterministic sim and results are collected by schedule
	// index, so any Jobs value produces bit-identical output.
	Jobs int
}

func (o *ScenarioOptions) applyDefaults() {
	o.Options.applyDefaults()
	if o.OpsPerClient == 0 {
		o.OpsPerClient = 30
	}
	if o.ThinkTime == 0 {
		o.ThinkTime = o.Measure / time.Duration(o.OpsPerClient)
	} else if o.ThinkTime < 0 {
		o.ThinkTime = 0
	}
	total := o.Clients * o.OpsPerClient
	if floor := (total + maxOpsPerKey - 1) / maxOpsPerKey; o.ProbeKeys < floor {
		o.ProbeKeys = floor
	}
	if o.ProbeKeys < 8 {
		o.ProbeKeys = 8
	}
	if o.ClientRetry == 0 {
		o.ClientRetry = 120 * time.Millisecond
	}
	if o.ElectionTimeout == 0 {
		o.ElectionTimeout = 150 * time.Millisecond
	}
	if o.Drain == 0 {
		o.Drain = 5 * time.Second
	}
	if o.Durable {
		if o.SnapshotEvery == 0 {
			o.SnapshotEvery = 64
		}
		if o.SyncCost == 0 {
			o.SyncCost = 400 * time.Microsecond
		}
	}
}

// ScenarioResult is one scenario's measurement and verdicts. It contains
// only values derived from virtual time, so two runs at the same seed are
// comparable field-by-field (and asserted bit-identical in tests).
type ScenarioResult struct {
	Protocol Protocol
	N        int
	Clients  int

	// Acked counts operations acknowledged OK over the whole run.
	Acked int
	// Throughput is in-window acks per second (same window as Run).
	Throughput float64
	// Latency summarizes request latency over every acked operation.
	Latency metrics.Summary
	// AvailabilityGap is the longest interval between consecutive acks;
	// GapStart is when it opened. A fault that interrupts service shows up
	// here as a gap well above the per-op baseline.
	AvailabilityGap time.Duration
	GapStart        time.Duration
	// FirstFaultAt is the scheduled time of the first fault (0 with an
	// empty schedule); RecoveryLatency is the delay from that instant to
	// the first subsequent ack — how long the fault kept service down.
	FirstFaultAt    time.Duration
	RecoveryLatency time.Duration

	// Linearizable is the checker's verdict over every client's history;
	// LinBadKey names the failing key when false, and LinChecked and
	// LinExplored are the check's size and cost.
	Linearizable bool
	LinBadKey    uint64
	LinChecked   int
	LinExplored  int
	// AllComplete reports that every client finished its script — with
	// Converged, the "full recovery: all acked commands committed
	// everywhere" criterion.
	AllComplete bool
	// Converged reports that every replica's state machine ended
	// bit-identical (same checksum, same applied count).
	Converged bool
	// Unrecovered counts EPaxos instances left unexecuted across all
	// replicas after the drain — zero when Explicit Prepare recovery
	// finished every instance a fault orphaned (always zero for the
	// Paxos family).
	Unrecovered int

	Messages  uint64
	Delivered uint64
	Dropped   uint64

	// Durability telemetry, summed over replicas (zero on volatile runs).
	WALSyncs     uint64 // real journal fsyncs
	Snapshots    uint64 // checkpoints saved
	SnapRestores uint64 // snapshot installs (boot recovery + catch-up)
	Reboots      int    // honest restarts the injector completed
	// MaxLogLen and MaxWALBytes are the largest in-memory log and journal
	// footprint across replicas at run end — the bounded-memory check for
	// snapshot-driven compaction.
	MaxLogLen   int
	MaxWALBytes int

	// Overload telemetry. Busy counts wire.Busy rejections clients received
	// (each retried after the hinted backoff); DroppedExpired sums commands
	// the leaders dropped from their queues after QueueTTL; MaxQueueDepth is
	// the largest leader ingress queue observed across replicas — bounded by
	// paxos.Config.MaxPending when admission control is on.
	Busy           int
	DroppedExpired uint64
	MaxQueueDepth  uint64

	// Regions breaks the measurement down by client region (ascending
	// zone), populated when RegionClients is set on a multi-zone cluster.
	Regions []RegionResult
	// PerShard breaks availability down by shard (one entry when
	// unsharded).
	PerShard []ShardSlice

	// FaultLog lists the executed fault actions with resolved targets.
	FaultLog []chaos.Applied
}

// RegionResult is one region's slice of a WAN scenario: what service looked
// like to the clients homed there.
type RegionResult struct {
	Zone    int
	Clients int
	// Acked counts operations acknowledged to this region's clients.
	Acked int
	// Latency summarizes this region's request latency.
	Latency metrics.Summary
	// AvailabilityGap is the longest ack silence this region saw, GapStart
	// its opening instant, and Stalls how many distinct gaps of at least
	// 250ms the region suffered — a region cut off its WAN uplinks shows
	// one long stall here while the others stay smooth.
	AvailabilityGap time.Duration
	GapStart        time.Duration
	Stalls          int
}

// String implements fmt.Stringer.
func (r RegionResult) String() string {
	return fmt.Sprintf("zone %d: %d clients, %d acked, mean %v p99 %v, gap %v, stalls %d",
		r.Zone, r.Clients, r.Acked, r.Latency.Mean, r.Latency.P99, r.AvailabilityGap, r.Stalls)
}

// regionStallThreshold is the gap length counted as a service stall in
// RegionResult.Stalls: comfortably above a WAN round trip, well below any
// fault window a schedule would script.
const regionStallThreshold = 250 * time.Millisecond

// String implements fmt.Stringer.
func (r ScenarioResult) String() string {
	return fmt.Sprintf("%s N=%d: %d acked, gap %v, recovery %v, lin=%v complete=%v converged=%v",
		r.Protocol, r.N, r.Acked, r.AvailabilityGap, r.RecoveryLatency,
		r.Linearizable, r.AllComplete, r.Converged)
}

// scenClient is a scenario client: a closed-loop client with a fixed script
// whose every completed operation is recorded into the shared history. Each
// op routes by key to its shard, with one at-most-once session per shard. On
// silence it re-sends to the shard's next target round-robin (same
// ClientID/Seq, so session tables dedup), masking crashed leaders the way a
// real client library would.
type scenClient struct {
	id      uint64
	ep      *netsim.Endpoint
	plan    shard.Map
	targets [][]ids.ID    // per shard, retry order (shared across clients)
	rr      []int         // per-shard target cursor
	retry   time.Duration // silence timeout before re-sending (0 disables)

	script  []kvstore.Command
	pos     int
	seqs    []uint64
	started time.Duration
	timer   node.Timer
	think   time.Duration
	// awaiting is true from issue until the op's ack is accepted; replies
	// arriving outside that window (duplicates of an accepted ack) are
	// dropped even though the op's seq is still current.
	awaiting bool
	done     bool

	hist      *linearizability.History
	gaps      *metrics.GapTracker
	shardGaps []*metrics.GapTracker
	lat       *metrics.Histogram
	inWindow  *metrics.Counter
	busy      *metrics.Counter
	warmupEnd time.Duration
	windowEnd time.Duration

	// rgaps/rlat additionally route this client's acks to its home
	// region's trackers (nil outside RegionClients runs).
	rgaps *metrics.GapTracker
	rlat  *metrics.Histogram
}

func (c *scenClient) stopTimer() {
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
}

// shard returns the current op's shard.
func (c *scenClient) shard() int { return c.plan.Router.Shard(c.script[c.pos].Key) }

// send issues the current op to its shard's current target.
func (c *scenClient) send(k int) {
	t := c.targets[k]
	c.ep.Send(t[c.rr[k]%len(t)], request(c.plan, k, c.script[c.pos]))
}

func (c *scenClient) armRetry() {
	if c.retry <= 0 {
		return
	}
	pos := c.pos
	c.timer = c.ep.After(c.retry, func() {
		if c.done || !c.awaiting || c.pos != pos {
			return
		}
		k := c.shard()
		c.rr[k]++
		c.send(k)
		c.armRetry()
	})
}

func (c *scenClient) next() {
	c.stopTimer()
	if c.pos >= len(c.script) {
		c.done = true
		return
	}
	k := c.shard()
	c.seqs[k]++
	c.script[c.pos].ClientID = c.id
	c.script[c.pos].Seq = c.seqs[k]
	c.started = c.ep.Now()
	c.awaiting = true
	c.send(k)
	c.armRetry()
}

// OnMessage handles replies: acks are recorded, redirects followed, Busy
// backpressure honored with a paced retry, silence handled by the retry
// timer.
func (c *scenClient) OnMessage(from ids.ID, m wire.Msg) {
	if c.done || !c.awaiting {
		// A duplicate of an already-accepted ack: faulty links duplicate
		// replies, and between accepting an ack and the paced next() call
		// the op's seq is still current — the awaiting flag is what makes
		// the second copy inert.
		return
	}
	m, k := unwrap(m)
	if k != c.shard() {
		return
	}
	cmd := c.script[c.pos]
	if busy, ok := m.(wire.Busy); ok {
		if busy.Seq != cmd.Seq {
			return
		}
		c.busy.Inc()
		// Back off for the hinted interval, then re-issue the same command
		// at the (still-leading) rejecting node. The retry timer stays armed
		// as the fallback if the leader changes meanwhile.
		pos := c.pos
		c.ep.After(busy.RetryAfter, func() {
			if c.done || !c.awaiting || c.pos != pos {
				return
			}
			c.ep.Send(busy.Leader, request(c.plan, k, cmd))
		})
		return
	}
	rep, ok := m.(wire.Reply)
	if !ok || rep.Seq != cmd.Seq {
		return
	}
	if !rep.OK {
		if !rep.Leader.IsZero() {
			// Redirected: aim subsequent sends at the hinted leader.
			for i, t := range c.targets[k] {
				if t == rep.Leader {
					c.rr[k] = i
					break
				}
			}
			c.ep.Send(rep.Leader, request(c.plan, k, cmd))
		}
		// No hint: wait for the retry timer rather than hot-loop.
		return
	}
	now := c.ep.Now()
	c.awaiting = false
	op := linearizability.Op{
		Key:    cmd.Key,
		Start:  c.started,
		End:    now,
		Client: c.id,
	}
	if cmd.Op == kvstore.Get {
		op.Kind = linearizability.Read
		if rep.Exists {
			op.Output = string(rep.Value)
		}
	} else {
		op.Kind = linearizability.Write
		op.Input = string(cmd.Value)
	}
	c.hist.Add(op)
	c.gaps.Record(now)
	c.shardGaps[k].Record(now)
	c.lat.Observe(now - c.started)
	if c.rgaps != nil {
		c.rgaps.Record(now)
		c.rlat.Observe(now - c.started)
	}
	if now >= c.warmupEnd && now < c.windowEnd {
		c.inWindow.Inc()
	}
	c.pos++
	c.stopTimer()
	if c.think > 0 {
		c.ep.After(c.think, c.next)
	} else {
		c.next()
	}
}

// scenScript builds client ci's fixed workload: keys assigned round-robin
// over the probe keyspace by global op index, so each key receives exactly
// ⌈total/keys⌉ operations (the checker's per-key bound holds by
// construction) while clients still contend on shared keys. Every third
// operation reads.
func scenScript(ci, ops, keys int) []kvstore.Command {
	out := make([]kvstore.Command, 0, ops)
	for j := 0; j < ops; j++ {
		key := uint64((ci*ops + j) % keys)
		if j%3 == 2 {
			out = append(out, kvstore.Command{Op: kvstore.Get, Key: key})
		} else {
			out = append(out, kvstore.Command{
				Op: kvstore.Put, Key: key,
				Value: []byte(fmt.Sprintf("c%d-%d", ci, j)),
			})
		}
	}
	return out
}

// RunScenario executes one protocol run under the fault schedule and returns
// measurements plus the correctness verdicts. Schedule times are absolute
// virtual times (the measurement window starts at opts.Warmup). On a sharded
// run every completed operation lands in the one shared history (per-key
// linearizability holds whichever shard served the key), and each shard's
// availability is tracked separately so a fault's blast radius is
// measurable per shard.
func RunScenario(opts ScenarioOptions, sched chaos.Schedule) ScenarioResult {
	opts.applyDefaults()
	d := deploy(&opts)
	sim, cc, net, plan := d.sim, d.cc, d.net, d.plan

	hist := &linearizability.History{}
	gaps := &metrics.GapTracker{}
	lat := metrics.NewHistogram()
	var inWindow, busyCount metrics.Counter
	shardGaps := make([]*metrics.GapTracker, plan.NumShards())
	for k := range shardGaps {
		shardGaps[k] = &metrics.GapTracker{}
	}
	warmupEnd := opts.Warmup
	windowEnd := opts.Warmup + opts.Measure

	// Per-region trackers, when clients spread over zones: zones in
	// ascending order, clients assigned round-robin so every region gets
	// an equal share (±1).
	var zones []int
	regionGaps := map[int]*metrics.GapTracker{}
	regionLat := map[int]*metrics.Histogram{}
	regionClients := map[int]int{}
	if opts.RegionClients {
		if zs := cc.ZoneList(); len(zs) > 1 {
			zones = zs
			for _, z := range zones {
				regionGaps[z] = &metrics.GapTracker{}
				regionLat[z] = metrics.NewHistogram()
			}
		}
	}

	// Per-shard retry targets: members with the planned leader first, the
	// rest in membership order. EPaxos clients home round-robin over the
	// membership in sorted ID order, so a dead home replica's pending
	// requests move to the next live replica deterministically — sorted ID
	// order, never map order.
	targets := make([][]ids.ID, plan.NumShards())
	for k, desc := range plan.Shards {
		targets[k] = append(targets[k], desc.Leader)
		for _, id := range desc.Members {
			if id != desc.Leader {
				targets[k] = append(targets[k], id)
			}
		}
	}
	if opts.Protocol == EPaxos {
		ids.Sort(targets[0])
	}

	clients := make([]*scenClient, opts.Clients)
	for i := range clients {
		cl := &scenClient{
			id:        uint64(i + 1),
			plan:      plan,
			targets:   targets,
			rr:        make([]int, plan.NumShards()),
			retry:     opts.ClientRetry,
			script:    scenScript(i, opts.OpsPerClient, opts.ProbeKeys),
			seqs:      make([]uint64, plan.NumShards()),
			think:     opts.ThinkTime,
			hist:      hist,
			gaps:      gaps,
			shardGaps: shardGaps,
			lat:       lat,
			inWindow:  &inWindow,
			busy:      &busyCount,
			warmupEnd: warmupEnd,
			windowEnd: windowEnd,
		}
		if opts.Protocol == EPaxos {
			// Every replica serves in EPaxos: home clients round-robin
			// over the whole membership (§5.4's client model). Crashed
			// homes are masked by the retry timer, duplicate admissions by
			// the replicated session tables.
			cl.rr[0] = i % len(targets[0])
		}
		home := cc.ZoneOf(cc.Nodes[0])
		if zones != nil {
			home = zones[i%len(zones)]
			cl.rgaps = regionGaps[home]
			cl.rlat = regionLat[home]
			regionClients[home]++
		}
		cl.ep = net.Register(ids.NewID(home, 1000+i), cl, true)
		clients[i] = cl
	}

	allDone := func() bool {
		for _, cl := range clients {
			if !cl.done {
				return false
			}
		}
		return true
	}

	// Scripted clients are closed-loop ACROSS shards: one stuck on a crashed
	// shard stops offering load to healthy ones, which would read as a stall
	// there. One availability probe per shard decouples the measurement,
	// reading dedicated keys above the scripted keyspace at a cadence well
	// under the stall threshold. A single shard needs none.
	var probes []*shardProbe
	for k := range plan.Shards {
		if plan.NumShards() == 1 {
			break
		}
		pr := &shardProbe{
			id:       uint64(opts.Clients + 1 + k),
			shardIdx: k,
			keys:     probeKeys(plan.Router, k, 8, uint64(opts.ProbeKeys)),
			targets:  targets[k],
			retry:    opts.ClientRetry,
			interval: 25 * time.Millisecond,
			gaps:     shardGaps[k],
			done:     allDone,
		}
		pr.ep = net.Register(ids.NewID(cc.ZoneOf(cc.Nodes[0]), 2000+k), pr, true)
		probes = append(probes, pr)
	}

	injector := chaos.Apply(sim, net, sched, d.resolver())

	d.start()
	for i, cl := range clients {
		sim.Schedule(time.Duration(i)*50*time.Microsecond+time.Millisecond, cl.next)
	}
	for k, pr := range probes {
		sim.Schedule(time.Duration(k)*75*time.Microsecond+time.Millisecond, pr.next)
	}

	sim.Run(windowEnd)
	d.drain(windowEnd, allDone)

	res := ScenarioResult{
		Protocol:    opts.Protocol,
		N:           opts.N,
		Clients:     opts.Clients,
		Acked:       gaps.Count(),
		Throughput:  float64(inWindow.Value()) / opts.Measure.Seconds(),
		Busy:        int(busyCount.Value()),
		Latency:     lat.Snapshot(),
		Messages:    net.MessagesSent(),
		Delivered:   net.MessagesDelivered(),
		Dropped:     net.MessagesDropped(),
		FaultLog:    injector.Log(),
		AllComplete: allDone(),
		Converged:   true,
	}
	res.GapStart, res.AvailabilityGap = gaps.MaxGap()
	for _, z := range zones {
		rr := RegionResult{
			Zone:    z,
			Clients: regionClients[z],
			Acked:   regionGaps[z].Count(),
			Latency: regionLat[z].Snapshot(),
			Stalls:  regionGaps[z].GapsOver(regionStallThreshold),
		}
		rr.GapStart, rr.AvailabilityGap = regionGaps[z].MaxGap()
		res.Regions = append(res.Regions, rr)
	}
	for k, desc := range plan.Shards {
		sl := ShardSlice{
			Shard:     k,
			Members:   desc.Members,
			Leader:    desc.Leader,
			Acked:     shardGaps[k].Count(),
			Stalls:    shardGaps[k].GapsOver(regionStallThreshold),
			Converged: d.shardConverged(k),
		}
		sl.GapStart, sl.AvailabilityGap = shardGaps[k].MaxGap()
		res.Converged = res.Converged && sl.Converged
		res.PerShard = append(res.PerShard, sl)
	}
	if len(sched) > 0 {
		res.FirstFaultAt = sched.FirstFaultAt()
		if at, ok := gaps.FirstAfter(res.FirstFaultAt); ok {
			res.RecoveryLatency = at - res.FirstFaultAt
		}
	}
	d.each(func(k int, id ids.ID, rep replica) {
		c := core(rep)
		if c == nil {
			res.Unrecovered += rep.(*epaxos.Replica).Unexecuted()
			return
		}
		st := c.Stats()
		res.WALSyncs += st.WALSyncs
		res.Snapshots += st.Snapshots
		res.SnapRestores += st.SnapRestores
		res.DroppedExpired += st.DroppedExpired
		res.MaxQueueDepth = max(res.MaxQueueDepth, st.MaxQueueDepth)
		res.MaxLogLen = max(res.MaxLogLen, c.Log().Len())
		if d.storages != nil {
			res.MaxWALBytes = max(res.MaxWALBytes, d.storages[k][id].Bytes())
		}
	})
	for _, a := range res.FaultLog {
		if a.Kind == chaos.Reboot {
			res.Reboots++
		}
	}
	lin := hist.Check()
	res.Linearizable = lin.OK
	res.LinBadKey = lin.BadKey
	res.LinChecked = lin.Checked
	res.LinExplored = lin.Explored
	return res
}

// FaultPoint is one sample of a fault-intensity sweep.
type FaultPoint struct {
	Crashes         int
	Throughput      float64
	AvailabilityGap time.Duration
	P99             time.Duration
	Linearizable    bool
	Recovered       bool // AllComplete && Converged
}

// FaultCurve sweeps simultaneous follower-crash counts from 0 to maxCrashes
// (clamped to chaos.MaxSafeCrashes): k followers crash together a quarter
// into the window and recover at the midpoint. The curve shows how
// availability degrades with fault intensity while safety holds.
func FaultCurve(opts ScenarioOptions, maxCrashes int) []FaultPoint {
	opts.applyDefaults()
	cc := opts.cluster()
	if limit := chaos.MaxSafeCrashes(opts.N); maxCrashes > limit {
		maxCrashes = limit
	}
	out := make([]FaultPoint, 0, maxCrashes+1)
	for k := 0; k <= maxCrashes; k++ {
		crashAt := opts.Warmup + opts.Measure/4
		downFor := opts.Measure / 4
		var sched chaos.Schedule
		for i := 0; i < k; i++ {
			victim := cc.Nodes[len(cc.Nodes)-1-i] // followers, from the back
			sched = chaos.Merge(sched, chaos.NodeCrash(victim, crashAt, downFor))
		}
		r := RunScenario(opts, sched)
		out = append(out, FaultPoint{
			Crashes:         k,
			Throughput:      r.Throughput,
			AvailabilityGap: r.AvailabilityGap,
			P99:             r.Latency.P99,
			Linearizable:    r.Linearizable,
			Recovered:       r.AllComplete && r.Converged,
		})
	}
	return out
}

// ExploreSchedules generates ex.Scenarios random schedules (see
// chaos.Explore) with the harness defaults filled in: ex.Nodes from the
// cluster when nil, and the palette per protocol — the WAN region
// families on WAN clusters, chaos.EPaxosPalette (everything but relay
// crashes) for EPaxos, and everything-but-relay-crashes for Paxos.
// Exposed separately from ExploreScenarios so sweeps can keep the
// schedule that produced each result (the shrinker's input).
func ExploreSchedules(opts ScenarioOptions, ex chaos.ExplorerOpts) []chaos.Schedule {
	opts.applyDefaults()
	wan := opts.WAN || opts.WANLossy
	if ex.Nodes == nil {
		cc := opts.cluster()
		ex.Nodes = cc.Nodes
		if wan && ex.Cluster.N() == 0 {
			// Hand the explorer the zone topology so region fault
			// families can draw from it.
			ex.Cluster = cc
		}
	}
	if ex.Allow == (chaos.Palette{}) {
		switch {
		case wan:
			// Region faults for every protocol; EPaxos is leaderless, so
			// placement flips have nobody to move.
			ex.Allow = chaos.WANPalette()
			if opts.Protocol == EPaxos {
				ex.Allow.PlacementFlip = false
			}
		case opts.Protocol == EPaxos:
			// Full LAN palette minus relay crashes: Explicit Prepare
			// recovery, the retransmit sweep and the session tables take
			// crashes, partitions, loss and duplication.
			ex.Allow = chaos.EPaxosPalette()
		case opts.Protocol == Paxos:
			ex.Allow = chaos.FullPalette()
			ex.Allow.RelayCrash = false
		default:
			ex.Allow = chaos.FullPalette()
		}
	}
	if ex.Groups == 0 {
		ex.Groups = opts.NumGroups
	}
	if ex.Horizon == 0 {
		ex.Horizon = opts.Warmup + opts.Measure
	}
	if ex.Seed == 0 {
		ex.Seed = opts.Seed
	}
	return chaos.Explore(ex)
}

// RunScenarios runs one scenario per schedule and returns results in
// schedule order. Runs fan out across opts.Jobs workers (0 = GOMAXPROCS,
// 1 = serial); each run is an isolated deterministic sim — no shared
// state, per-run RNGs — and results land in a pre-sized slice by index,
// so the output is bit-identical to the serial path regardless of worker
// count or completion order.
func RunScenarios(opts ScenarioOptions, scheds []chaos.Schedule) []ScenarioResult {
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(scheds) {
		jobs = len(scheds)
	}
	out := make([]ScenarioResult, len(scheds))
	if jobs <= 1 {
		for i, s := range scheds {
			out[i] = RunScenario(opts, s)
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = RunScenario(opts, scheds[i])
			}
		}()
	}
	for i := range scheds {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// ExploreScenarios generates ex.Scenarios random schedules and runs each
// under opts, returning one result per schedule. It is
// RunScenarios(opts, ExploreSchedules(opts, ex)) — parallel across
// opts.Jobs workers with positionally bit-identical results.
func ExploreScenarios(opts ScenarioOptions, ex chaos.ExplorerOpts) []ScenarioResult {
	return RunScenarios(opts, ExploreSchedules(opts, ex))
}
