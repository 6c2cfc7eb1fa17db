// Sharded measurements: per-shard result slices, the availability probe a
// sharded scenario runs per shard, and the shard-count sweep. Sharding
// multiplexes S independent consensus groups over one simulated cluster —
// the "many groups behind a key router" axis that lifts the single-log
// serialization ceiling PigPaxos itself cannot (§7's scalability
// discussion: relay fan-out removes the leader's communication bottleneck,
// sharding removes the sequencing one). deploy.go brings the groups up.
package harness

import (
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/metrics"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/node"
	"pigpaxos/internal/shard"
	"pigpaxos/internal/wire"
)

// ShardLoad is one shard's slice of a sharded throughput run.
type ShardLoad struct {
	Shard int
	// Leader is the shard's planned leader.
	Leader ids.ID
	// Acked counts in-window acknowledgements routed to this shard; with a
	// zipfian workload the spread across shards shows the hot shard.
	Acked int
	// Throughput is this shard's in-window acks per second.
	Throughput float64
	// LeaderUtil is the leader node's CPU utilization over the run. Nodes
	// hosting several shards report the same (whole-node) figure for each.
	LeaderUtil float64
}

// shardProbe is a per-shard availability probe: one closed-loop client per
// shard issuing paced reads on keys that shard owns. Scripted clients are
// closed-loop ACROSS shards — one stuck on a crashed shard stops offering
// load to healthy shards, which would read as a stall there. Probes decouple
// the measurement: a shard's GapTracker goes silent only when the shard
// itself cannot serve. Probe reads go through the log like any command (so
// they measure commit availability), but stay out of the latency histogram,
// throughput counters and linearizability history — they are measurement,
// not workload.
type shardProbe struct {
	id       uint64
	ep       *netsim.Endpoint
	shardIdx int
	keys     []uint64 // rotation of probe keys this shard owns
	ki       int
	seq      uint64
	targets  []ids.ID
	rr       int
	retry    time.Duration
	interval time.Duration
	gaps     *metrics.GapTracker
	// done reports the scripted workload finished: the probe stops there,
	// so its reads cannot keep the leader a commit ahead of its followers
	// while the run waits for the replicas to converge.
	done func() bool

	cur      kvstore.Command
	awaiting bool
	timer    node.Timer
}

func (p *shardProbe) stopTimer() {
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
}

func (p *shardProbe) send() {
	to := p.targets[p.rr%len(p.targets)]
	p.ep.Send(to, wire.Sharded{Shard: uint16(p.shardIdx), Inner: wire.Request{Cmd: p.cur}})
}

func (p *shardProbe) armRetry() {
	if p.retry <= 0 {
		return
	}
	seq := p.seq
	p.timer = p.ep.After(p.retry, func() {
		if !p.awaiting || p.seq != seq {
			return
		}
		p.rr++
		p.send()
		p.armRetry()
	})
}

func (p *shardProbe) next() {
	p.stopTimer()
	if p.done() {
		return
	}
	p.seq++
	p.cur = kvstore.Command{
		Op: kvstore.Get, Key: p.keys[p.ki%len(p.keys)],
		ClientID: p.id, Seq: p.seq,
	}
	p.ki++
	p.awaiting = true
	p.send()
	p.armRetry()
}

func (p *shardProbe) OnMessage(from ids.ID, m wire.Msg) {
	m, k := unwrap(m)
	rep, ok := m.(wire.Reply)
	if !ok || k != p.shardIdx || rep.Seq != p.seq || !p.awaiting {
		return
	}
	if !rep.OK {
		if !rep.Leader.IsZero() {
			for i, t := range p.targets {
				if t == rep.Leader {
					p.rr = i
					break
				}
			}
			p.send()
		}
		return
	}
	p.awaiting = false
	p.gaps.Record(p.ep.Now())
	p.stopTimer()
	p.ep.After(p.interval, p.next)
}

// probeKeys picks n keys the router assigns to shard k, scanning upward from
// `from` so probe keys never collide with the scripted keyspace.
func probeKeys(r shard.Router, k, n int, from uint64) []uint64 {
	out := make([]uint64, 0, n)
	for key := from; len(out) < n; key++ {
		if r.Shard(key) == k {
			out = append(out, key)
		}
	}
	return out
}

// ShardSlice is one shard's slice of a sharded scenario: what service looked
// like for the keys it owns.
type ShardSlice struct {
	Shard int
	// Members and Leader echo the plan (Leader is the planned initial
	// leader, not the post-fault one).
	Members []ids.ID
	Leader  ids.ID
	// Acked counts operations acknowledged for this shard's keys.
	Acked int
	// AvailabilityGap is the longest ack silence for this shard's keys,
	// GapStart its opening instant, and Stalls how many distinct gaps of at
	// least 250ms the shard suffered. The blast-radius criterion: a crash
	// of shard k's leader must leave Stalls at zero for every shard the
	// victim does not replicate.
	AvailabilityGap time.Duration
	GapStart        time.Duration
	Stalls          int
	// Converged reports the shard's members ended bit-identical.
	Converged bool
}

// ShardPoint is one sample of a shard-count sweep.
type ShardPoint struct {
	Shards     int
	Throughput float64
	// SpeedupVsMin is aggregate throughput relative to the smallest swept
	// shard count (S=1 when the sweep includes it). It used to be named
	// Speedup and silently report 1.0 for every point whenever the sweep
	// lacked an S=1 sample — the baseline was only captured at s == 1.
	SpeedupVsMin float64
	MeanLatMs    float64
	P99Ms        float64
	// HotShardShare is the busiest shard's fraction of aggregate acks —
	// 1/S under a uniform workload, rising toward the zipfian skew's head
	// under a hot-key workload.
	HotShardShare float64
}

// ShardSweep runs Run across shard counts at equal aggregate client
// count and reports the scaling curve, baselined against the smallest
// swept shard count. The acceptance bar for the sharding layer is
// SpeedupVsMin ≥ 3 at Shards=4 (with a sweep starting at S=1).
func ShardSweep(opts Options, shardCounts []int) []ShardPoint {
	out := make([]ShardPoint, 0, len(shardCounts))
	for _, s := range shardCounts {
		o := opts
		o.Shards = s
		r := Run(o)
		p := ShardPoint{
			Shards:       s,
			Throughput:   r.Throughput,
			SpeedupVsMin: 1,
			MeanLatMs:    float64(r.Latency.Mean.Microseconds()) / 1000,
			P99Ms:        float64(r.Latency.P99.Microseconds()) / 1000,
		}
		total := 0
		hot := 0
		for _, sl := range r.PerShard {
			total += sl.Acked
			if sl.Acked > hot {
				hot = sl.Acked
			}
		}
		if total > 0 {
			p.HotShardShare = float64(hot) / float64(total)
		}
		out = append(out, p)
	}
	// Baseline after the fact so the sweep order cannot matter: the
	// smallest swept S anchors the curve wherever it appears in the list.
	minIdx := -1
	for i, p := range out {
		if minIdx < 0 || p.Shards < out[minIdx].Shards {
			minIdx = i
		}
	}
	if minIdx >= 0 && out[minIdx].Throughput > 0 {
		base := out[minIdx].Throughput
		for i := range out {
			out[i].SpeedupVsMin = out[i].Throughput / base
		}
	}
	return out
}

// DefaultShardSweep is the shard-count ladder of the shard scenario.
var DefaultShardSweep = []int{1, 2, 4, 8}
