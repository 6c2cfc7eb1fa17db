// Command perfbench is the repository benchmark. It drives one workload
// through the repo's own public entry points and prints, as the last line
// of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// Usage (from the repository root, through perfbench/run.sh, which builds
// this package first):
//
//	bash perfbench/run.sh --workload tcp-pig5-rw --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//   - tcp-pig5-rw: a 5-node PigPaxos cluster (2 relay groups, batch 16,
//     window 4, no WAL) on loopback TCP inside this process, loaded
//     open-loop by loadgen.Run at 2k/s and 10k/s, 50% reads of 1000 keys,
//     8 B values.
//   - tcp-paxos3-wal: a 3-node Multi-Paxos cluster (batch 16, window 4),
//     each replica journaling to its own wal.MemStorage, write-only 256 B
//     values at 2k/s and 6k/s.
//   - sim25-leader-crash: the deterministic simulator at N=25, Paxos and
//     PigPaxos (r=3) with 50 unpaced clients and PigPaxos with 5, each
//     client scripting 200 ops, chaos.LeaderCrash 300 ms into the window.
//
// End-to-end metrics (--trace 0), the same names on every workload:
//
//   - setup_s: median of 9 bring-ups, each until cluster.WaitReady sees an
//     OK read; on the simulator, of 9 single-op scenarios on the same
//     25-node cluster.
//   - p50_ms_low, p50_ms_high: median over one-second loadgen windows of
//     the window's open-loop p50 at the low and the high rate; on the
//     simulator, median over seeds of the virtual-time p50 with 5 and with
//     50 PigPaxos clients.
//   - goodput_ops_s: completions per second at the high rate; on the
//     simulator, PigPaxos's virtual-time throughput with 50 clients.
//   - ok_frac: 1 - (shed + timed out) / offered; on the simulator,
//     acked / scripted.
//   - cpu_us_per_op: process CPU (client included) per command the leader
//     applied at the high rate; on the simulator, per acked command.
//
// Tail percentiles, per-layer counts and times and a CPU profile folded by
// package come from --trace 1; see perLayer for the list.
//
// With --trace 0 the metrics are measured with no wrappers. With --trace 1
// the run measures an untraced pass and then a traced pass that wraps
// node.Handler, node.Context and wal.Storage, records spans and a CPU
// profile, and prints the per-layer set. A failed output check prints
// correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // spans and CPU profile of a traced run
}

// metric is one reported value. n is the sample count behind a
// percentile (0 for anything else).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// outcome is what a workload run returns: its metrics, the operations it
// attempted and failed, and the output checks it made.
type outcome struct {
	metrics   []metric
	attempted uint64
	failed    uint64
	checks    []check
}

type check struct {
	name string
	err  error
}

func (o *outcome) add(name string, v float64, unit string) {
	o.metrics = append(o.metrics, metric{name: name, value: v, unit: unit})
}

func (o *outcome) addN(name string, v float64, unit string, n int) {
	o.metrics = append(o.metrics, metric{name: name, value: v, unit: unit, n: n})
}

func (o *outcome) check(name string, err error) {
	o.checks = append(o.checks, check{name: name, err: err})
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig) (*outcome, error){
	"tcp-pig5-rw":        func(cfg runConfig) (*outcome, error) { return runMetal(cfg, pig5) },
	"tcp-paxos3-wal":     func(cfg runConfig) (*outcome, error) { return runMetal(cfg, paxos3WAL) },
	"sim25-leader-crash": runSim,
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg runConfig
	fs.StringVar(&cfg.workload, "workload", "", "tcp-pig5-rw | tcp-paxos3-wal | sim25-leader-crash")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed (loadgen arrivals and keys, simulator seeds)")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	traceN := fs.Int("trace", 0, "1 = add a traced pass and print the per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/trace", "directory for a traced run's spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceN == 1
	runner, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (*traceN != 0 && *traceN != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n",
			cfg.workload, cfg.seconds, *traceN)
		return 2
	}

	goroutines := runtime.NumGoroutine()
	out, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	out.check("goroutines return to the pre-workload count", settleGoroutines(goroutines))
	if cfg.trace {
		completePerLayer(out)
	}
	return report(stdout, out)
}

// perLayer lists every per-layer metric a traced run prints, with its unit.
func perLayer() []metric {
	l := []metric{
		{name: "loadgen.sched_lag_p99_ms", unit: "ms"},
		{name: "loadgen.busy_per_op", unit: "count"},
		{name: "loadgen.resends_per_op", unit: "count"},
		{name: "loadgen.fail_frac", unit: "frac"},
		{name: "loadgen.p99_ms_low", unit: "ms"},
		{name: "loadgen.p99_ms_high", unit: "ms"},
		{name: "loadgen.p999_ms_high", unit: "ms"},
		{name: "transport.frames_per_op", unit: "count"},
		{name: "transport.leader_frames_per_op", unit: "count"},
		{name: "transport.bytes_per_op", unit: "B"},
		{name: "node.busy_frac.leader", unit: "frac"},
		{name: "node.busy_frac.relay_max", unit: "frac"},
		{name: "node.timer_us", unit: "us"},
		{name: "paxos.batch_mean", unit: "count"},
		{name: "paxos.queue_depth_max", unit: "count"},
		{name: "paxos.commit_ewma_ms", unit: "ms"},
		{name: "paxos.busy", unit: "count"},
		{name: "pigpaxos.full_flush_frac", unit: "frac"},
		{name: "pigpaxos.late_votes", unit: "count"},
		{name: "pigpaxos.leader_retries", unit: "count"},
		{name: "wal.sync_ms_p50", unit: "ms"},
		{name: "wal.sync_ms_p99", unit: "ms"},
		{name: "wal.syncs_per_op", unit: "count"},
		{name: "wal.append_us", unit: "us"},
		{name: "wal.snapshot_ms", unit: "ms"},
		{name: "wal.compact_ms", unit: "ms"},
		{name: "netsim.msgs_per_op", unit: "count"},
		{name: "netsim.drop_frac", unit: "frac"},
		{name: "linearizability.explored_per_op", unit: "count"},
		{name: "rlog.max_len", unit: "count"},
		{name: "sim_gap_ms.paxos", unit: "ms"},
		{name: "sim_gap_ms.pigpaxos", unit: "ms"},
		{name: "sim_ops_s.paxos", unit: "ops/s"},
		{name: "sim_ops_s.pigpaxos", unit: "ops/s"},
		{name: "solo.p50_ms", unit: "ms"},
		{name: "solo.cpu_us_per_op", unit: "us"},
		{name: "trace.overhead_frac", unit: "frac"},
	}
	for _, k := range stepKinds {
		l = append(l, metric{name: "node.step_us." + k.String(), unit: "us"})
	}
	for _, p := range profLayers {
		l = append(l, metric{name: "prof." + p + ".self_frac", unit: "frac"})
	}
	return l
}

// completePerLayer reports every per-layer metric the workload did not
// measure as 0: the workload does not exercise that layer.
func completePerLayer(out *outcome) {
	have := make(map[string]bool, len(out.metrics))
	for _, m := range out.metrics {
		have[m.name] = true
	}
	for _, m := range perLayer() {
		if !have[m.name] {
			out.add(m.name, 0, m.unit)
		}
	}
}

// settleGoroutines waits for the goroutine count to fall back to before,
// so leaked reader or writer goroutines cannot skew a later measurement.
func settleGoroutines(before int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines before the workload, %d after", before, now)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// report prints the human-readable lines and then the JSON result line. It
// returns the exit code: 1 when any output check failed.
func report(w io.Writer, out *outcome) int {
	correct := true
	for _, c := range out.checks {
		status := "ok"
		if c.err != nil {
			correct = false
			status = "FAILED: " + c.err.Error()
		}
		fmt.Fprintf(w, "check %s: %s\n", c.name, status)
	}
	metrics := make(map[string]map[string]any, len(out.metrics))
	sort.Slice(out.metrics, func(i, j int) bool { return out.metrics[i].name < out.metrics[j].name })
	for _, m := range out.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			correct = false
			fmt.Fprintf(w, "check %s is finite: FAILED\n", m.name)
			m.value = -1
		}
		if m.n > 0 {
			fmt.Fprintf(w, "%-36s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, m.value, m.unit)
		}
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(out.attempted, 1),
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !correct {
		return 1
	}
	return 0
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentileMS returns the nearest-rank p-th percentile of ds in ms.
func percentileMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(p/100*float64(len(s))-1e-9)) - 1
	idx = min(max(idx, 0), len(s)-1)
	return ms(s[idx])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0 (a per-layer count on a workload that does
// not exercise the layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
