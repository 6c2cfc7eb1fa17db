package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/metrics"
)

// The golden test pins every runner's output at fixed seeds: one line per
// case, each printing a fixed list of fields, compared against recorded
// constants. Adding a result field moves no line; changing what any runner
// computes does. A line may only change together with an explanation of why
// the simulated run itself changed.

func latLine(l metrics.Summary) string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v", l.Count, l.Mean, l.P50, l.P99, l.Max)
}

func runLine(r Result) string {
	var series []string
	for _, p := range r.Series {
		series = append(series, fmt.Sprint(p.Rate))
	}
	return fmt.Sprintf("tput=%v %s msgs=%d batch=%v msgs/cmd=%v lutil=%v futil=%v series=[%s]",
		r.Throughput, latLine(r.Latency), r.Messages, r.MeanBatchSize, r.MsgsPerCmd,
		r.LeaderUtil, r.MeanFollowerUtil, strings.Join(series, " "))
}

func scenLine(r ScenarioResult) string {
	s := fmt.Sprintf("acked=%d tput=%v %s gap=%v@%v rec=%v lin=%v/%d/%d done=%v conv=%v msgs=%d/%d/%d busy=%d wal=%d snaps=%d restores=%d reboots=%d faults=%d",
		r.Acked, r.Throughput, latLine(r.Latency), r.AvailabilityGap, r.GapStart, r.RecoveryLatency,
		r.Linearizable, r.LinChecked, r.LinExplored, r.AllComplete, r.Converged,
		r.Messages, r.Delivered, r.Dropped, r.Busy, r.WALSyncs, r.Snapshots, r.SnapRestores,
		r.Reboots, len(r.FaultLog))
	for _, rr := range r.Regions {
		s += fmt.Sprintf(" z%d=%d/%v/%v/%d", rr.Zone, rr.Acked, rr.Latency.Mean, rr.AvailabilityGap, rr.Stalls)
	}
	return s
}

func overloadLine(r OverloadResult) string {
	return fmt.Sprintf("offered=%d done=%d shed=%d busy=%d timeouts=%d lbusy=%d expired=%d qdepth=%d goodput=%v %s",
		r.Offered, r.Completed, r.Shed, r.Busy, r.Timeouts, r.LeaderBusy, r.DroppedExpired,
		r.MaxQueueDepth, r.Goodput, latLine(r.Latency))
}

// shardStat is one shard's slice of a sharded golden line.
type shardStat struct {
	acked  int
	gap    time.Duration
	stalls int
}

func shardedLine(tput float64, lat metrics.Summary, msgs uint64, shards []shardStat) string {
	s := fmt.Sprintf("tput=%v %s msgs=%d", tput, latLine(lat), msgs)
	for k, st := range shards {
		s += fmt.Sprintf(" s%d=%d/%v/%d", k, st.acked, st.gap, st.stalls)
	}
	return s
}

func goldenOpts(p Protocol, n, clients int) Options {
	return Options{
		Protocol: p, N: n, Clients: clients, Seed: 7,
		Warmup: 100 * time.Millisecond, Measure: 300 * time.Millisecond,
	}
}

func goldenScen(p Protocol, n, clients, ops int) ScenarioOptions {
	o := ScenarioOptions{Options: goldenOpts(p, n, clients), OpsPerClient: ops}
	o.Measure = 600 * time.Millisecond
	return o
}

var goldenCases = []struct {
	name string
	run  func() string
	want string
}{
	{"run/paxos", func() string {
		return runLine(Run(goldenOpts(Paxos, 5, 20)))
	}, "tput=7923.333333333334 n=2377 mean=2.523781ms p50=2.518772ms p99=2.589087ms max=2.609244ms msgs=31738 batch=1 msgs/cmd=10.046850269072491 lutil=0.9985599949999999 futil=0.19962929999999998 series=[]"},
	{"run/pigpaxos-batched", func() string {
		o := goldenOpts(PigPaxos, 9, 40)
		o.NumGroups = 2
		o.BatchSize = 8
		return runLine(Run(o))
	}, "tput=26246.666666666668 n=7874 mean=1.524521ms p50=1.538127ms p99=1.803884ms max=2.01153ms msgs=49077 batch=6.027507163323782 msgs/cmd=4.679347826086956 lutil=0.93245771 futil=0.2942150134375 series=[]"},
	{"run/epaxos", func() string {
		return runLine(Run(goldenOpts(EPaxos, 5, 20)))
	}, "tput=4950 n=1485 mean=4.031154ms p50=3.90563ms p99=5.704397ms max=8.790774ms msgs=28226 batch=0 msgs/cmd=0 lutil=0.9984202524999999 futil=0.998274171875 series=[]"},
	{"run/fig13-crash-sluggish", func() string {
		o := goldenOpts(PigPaxos, 9, 40)
		o.CrashNode = 9
		o.CrashAt = 200 * time.Millisecond
		o.RecoverAt = 300 * time.Millisecond
		o.SluggishNode = 5
		o.SluggishFactor = 3
		o.SampleWidth = 100 * time.Millisecond
		return runLine(Run(o))
	}, "tput=8336.666666666668 n=2501 mean=4.800852ms p50=4.417735ms p99=22.660778ms max=23.055124ms msgs=61205 batch=1 msgs/cmd=17.87007299270073 lutil=0.9274615724999999 futil=0.415549786875 series=[9060 6710 9240]"},
	{"scenario/paxos-leader-crash", func() string {
		o := goldenScen(Paxos, 5, 6, 12)
		return scenLine(RunScenario(o, chaos.LeaderCrash(250*time.Millisecond, 200*time.Millisecond)))
	}, "acked=72 tput=80 n=72 mean=20.79097ms p50=769.403µs p99=241.03931ms max=241.03931ms gap=290.803082ms@205.082898ms rec=245.88598ms lin=true/72/72 done=true conv=true msgs=1011/997/14 busy=0 wal=0 snaps=0 restores=0 reboots=0 faults=2"},
	{"scenario/pigpaxos-leader-crash", func() string {
		o := goldenScen(PigPaxos, 9, 6, 12)
		return scenLine(RunScenario(o, chaos.LeaderCrash(250*time.Millisecond, 200*time.Millisecond)))
	}, "acked=72 tput=70 n=72 mean=20.949385ms p50=926.398µs p99=241.196888ms max=241.196888ms gap=290.877279ms@205.935879ms rec=246.813158ms lin=true/72/72 done=true conv=true msgs=1849/1835/14 busy=0 wal=0 snaps=0 restores=0 reboots=0 faults=2"},
	{"scenario/durable-restart-leader", func() string {
		o := goldenScen(PigPaxos, 5, 6, 12)
		o.Durable = true
		o.SnapshotEvery = 16
		return scenLine(RunScenario(o, chaos.LeaderRestart(250*time.Millisecond, 200*time.Millisecond)))
	}, "acked=72 tput=70 n=72 mean=23.125578ms p50=3.099202ms p99=243.705448ms max=243.705448ms gap=292.673746ms@217.231406ms rec=259.905152ms lin=true/72/72 done=true conv=true msgs=1209/1194/15 busy=0 wal=339 snaps=19 restores=1 reboots=1 faults=2"},
	{"scenario/wan-region-clients", func() string {
		o := WANScenario(Paxos, 9, 2, 6, 7)
		o.Warmup = 200 * time.Millisecond
		o.Measure = 600 * time.Millisecond
		return scenLine(RunScenario(o, nil))
	}, "acked=36 tput=43.333333333333336 n=36 mean=113.010531ms p50=124.250979ms p99=159.476038ms max=159.476038ms gap=95.477949ms@557.600204ms rec=0s lin=true/36/36 done=true conv=true msgs=1192/1186/0 busy=0 wal=0 snaps=0 restores=0 reboots=0 faults=0 z1=12/72.767539ms/62.306328ms/0 z2=12/129.442233ms/123.954648ms/0 z3=12/136.821822ms/132.1708ms/0"},
	{"sharded/closed-loop-s4", func() string {
		return goldenSharded(goldenScen(PigPaxos, 12, 24, 0), 4)
	}, "tput=33856.66666666667 n=20314 mean=708.994µs p50=673.138µs p99=1.127301ms max=1.441631ms msgs=142370 s0=4997/0s/0 s1=5247/0s/0 s2=4775/0s/0 s3=5295/0s/0"},
	{"sharded/shard-leader-crash-s4", func() string {
		o := goldenScen(Paxos, 12, 8, 12)
		return goldenShardedScenario(o, 4, chaos.ShardLeaderCrash(1, 250*time.Millisecond, 200*time.Millisecond))
	}, "acked=96 lin=true done=true conv=true faults=2 dropped=10 tput=120 n=96 mean=10.627901ms p50=585.598µs p99=240.87574ms max=240.87574ms msgs=1858 s0=106/25.585562ms/0 s1=36/225.289541ms/0 s2=46/25.585562ms/0 s3=34/25.585562ms/0"},
	{"overload/pigpaxos-rung", func() string {
		o := OverloadOptions{Options: goldenOpts(PigPaxos, 9, 16), Rate: 30000, QueueTTL: 200 * time.Millisecond}
		o.BatchSize = 8
		o.OpTimeout = 300 * time.Millisecond
		return overloadLine(RunOverload(o))
	}, "offered=8830 done=7377 shed=1339 busy=444 timeouts=114 lbusy=2536 expired=0 qdepth=128 goodput=24590 n=7377 mean=4.771608ms p50=4.147621ms p99=21.184645ms max=31.620556ms"},
}

func TestGoldenRunnerOutputs(t *testing.T) {
	for _, c := range goldenCases {
		if got := c.run(); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
