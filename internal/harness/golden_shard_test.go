package harness

import (
	"fmt"

	"pigpaxos/internal/chaos"
)

// The sharded golden cases reach the runners through these two adapters,
// so checking the golden lines against another revision of the harness API
// means swapping this file only.

func goldenSharded(o ScenarioOptions, shards int) string {
	o.Shards = shards
	r := Run(o.Options)
	var st []shardStat
	for _, sl := range r.PerShard {
		st = append(st, shardStat{acked: sl.Acked})
	}
	return shardedLine(r.Throughput, r.Latency, r.Messages, st)
}

func goldenShardedScenario(o ScenarioOptions, shards int, sched chaos.Schedule) string {
	o.Shards = shards
	r := RunScenario(o, sched)
	var st []shardStat
	for _, sl := range r.PerShard {
		st = append(st, shardStat{acked: sl.Acked, gap: sl.AvailabilityGap, stalls: sl.Stalls})
	}
	return fmt.Sprintf("acked=%d lin=%v done=%v conv=%v faults=%d dropped=%d %s",
		r.Acked, r.Linearizable, r.AllComplete, r.Converged, len(r.FaultLog), r.Dropped,
		shardedLine(r.Throughput, r.Latency, r.Messages, st))
}
