package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/harness"
)

const (
	simN            = 25
	simGroups       = 3 // PigPaxos relay groups (r=3)
	simClients      = 50
	simLightClients = 5
	simOps          = 200
	simWarmup       = 500 * time.Millisecond
	// simSecondsPerSeed is the wall time one seed's three scenarios take
	// on the reference box (2 vCPUs); a run covers seconds/simSecondsPerSeed
	// seeds.
	simSecondsPerSeed = 1.8
)

// simCase is one of the three scenarios each seed runs.
type simCase struct {
	label    string
	protocol harness.Protocol
	clients  int
}

var simCases = []simCase{
	{"paxos", harness.Paxos, simClients},
	{"pigpaxos", harness.PigPaxos, simClients},
	{"pigpaxos-light", harness.PigPaxos, simLightClients},
}

func simOptions(c simCase, seed int64) harness.ScenarioOptions {
	return harness.ScenarioOptions{
		Options: harness.Options{
			Protocol: c.protocol, N: simN, Clients: c.clients, Seed: seed,
			NumGroups: simGroups, Warmup: simWarmup,
		},
		OpsPerClient: simOps,
		ThinkTime:    -1, // unpaced: each client issues its next op on the ack
		Jobs:         1,
	}
}

// simSchedule kills the leader 300 ms into the measurement window and
// brings it back 500 ms later.
func simSchedule() chaos.Schedule {
	return chaos.LeaderCrash(simWarmup+300*time.Millisecond, 500*time.Millisecond)
}

// simPass is one serial sweep over the seeds: results[i][j] is seed i's
// run of simCases[j].
type simPass struct {
	results  [][]harness.ScenarioResult
	cpu      [][]time.Duration // process CPU of each run, indexed like results
	acked    int
	scripted int
}

func runSimPass(cfg runConfig, seconds float64, tr *tracer, out *outcome) *simPass {
	k := max(1, int(math.Round(seconds/simSecondsPerSeed)))
	p := &simPass{}
	var bad []error
	for i := 0; i < k; i++ {
		seed := cfg.seed*1000 + int64(i)
		var row []harness.ScenarioResult
		var cpus []time.Duration
		for _, c := range simCases {
			end := tr.mainSpan(opScenario, fmt.Sprintf("%s seed %d", c.label, seed))
			cpu0 := cpuTime()
			r := harness.RunScenario(simOptions(c, seed), simSchedule())
			cpus = append(cpus, cpuTime()-cpu0)
			end()
			p.acked += r.Acked
			p.scripted += c.clients * simOps
			if !r.Linearizable || !r.AllComplete || !r.Converged {
				bad = append(bad, fmt.Errorf("%s seed %d: linearizable %v complete %v converged %v",
					c.label, seed, r.Linearizable, r.AllComplete, r.Converged))
			}
			row = append(row, r)
		}
		p.results = append(p.results, row)
		p.cpu = append(p.cpu, cpus)
	}
	name := fmt.Sprintf("%d sim runs linearizable, complete and converged", k*len(simCases))
	if tr != nil {
		name += " (traced)"
	}
	out.check(name, errors.Join(bad...))
	out.attempted += uint64(p.scripted)
	out.failed += uint64(p.scripted - p.acked)
	return p
}

// column returns f over every seed's run of case j.
func (p *simPass) column(j int, f func(harness.ScenarioResult) float64) []float64 {
	var vs []float64
	for _, row := range p.results {
		vs = append(vs, f(row[j]))
	}
	return vs
}

func (p *simPass) count(j int) int {
	n := 0
	for _, row := range p.results {
		n += int(row[j].Latency.Count)
	}
	return n
}

// cpuPerOp is process CPU per acked command: for each case the median over
// seeds of its CPU per ack, weighted by the case's share of the acks.
func (p *simPass) cpuPerOp() float64 {
	var total float64
	for j := range simCases {
		perOp := median(p.columnCPU(j))
		acked := 0
		for _, row := range p.results {
			acked += row[j].Acked
		}
		total += perOp * float64(acked)
	}
	return ratio(total, float64(p.acked))
}

func (p *simPass) columnCPU(j int) []float64 {
	var vs []float64
	for i, row := range p.results {
		vs = append(vs, ratio(us(p.cpu[i][j]), float64(row[j].Acked)))
	}
	return vs
}

func runSim(cfg runConfig) (*outcome, error) {
	out := &outcome{}
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	// Set-up: a fault-free single-op scenario on the same 25-node cluster,
	// which builds the simulator, elects the first leader and commits once.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		o := simOptions(simCase{"setup", harness.PigPaxos, 1}, cfg.seed*1000+int64(i))
		o.OpsPerClient = 1
		start := time.Now()
		r := harness.RunScenario(o, nil)
		setups = append(setups, time.Since(start).Seconds())
		if r.Acked != 1 {
			return nil, fmt.Errorf("set-up scenario acked %d ops, want 1", r.Acked)
		}
	}
	base := runSimPass(cfg, seconds, nil, out)

	// Virtual time repeats exactly: the first seed's PigPaxos run again.
	again := harness.RunScenario(simOptions(simCases[1], cfg.seed*1000), simSchedule())
	var err error
	if !reflect.DeepEqual(again, base.results[0][1]) {
		err = fmt.Errorf("seed %d: second run differs (throughput %v vs %v, gap %v vs %v)",
			cfg.seed*1000, again.Throughput, base.results[0][1].Throughput,
			again.AvailabilityGap, base.results[0][1].AvailabilityGap)
	}
	out.check("a repeated seed gives identical virtual-time results", err)

	if !cfg.trace {
		out.addN("setup_s", median(setups), "s", len(setups))
		p50 := func(j int) float64 {
			return median(base.column(j, func(r harness.ScenarioResult) float64 { return ms(r.Latency.P50) }))
		}
		out.addN("p50_ms_low", p50(2), "ms", base.count(2))
		out.addN("p50_ms_high", p50(1), "ms", base.count(1))
		out.add("goodput_ops_s", median(base.column(1, func(r harness.ScenarioResult) float64 { return r.Throughput })), "ops/s")
		out.add("ok_frac", ratio(float64(base.acked), float64(base.scripted)), "frac")
		out.add("cpu_us_per_op", base.cpuPerOp(), "us")
		return out, nil
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
	traced := runSimPass(cfg, seconds, tr, out)
	if err := prof.stop(); err != nil {
		return nil, err
	}
	if err := writeSpans(tr, dir); err != nil {
		return nil, err
	}
	if err := addProfile(out, prof); err != nil {
		return nil, err
	}
	var msgs, dropped, acked, explored, checked float64
	maxLog := 0
	for _, row := range traced.results {
		for _, r := range row {
			msgs += float64(r.Messages)
			dropped += float64(r.Dropped)
			acked += float64(r.Acked)
			explored += float64(r.LinExplored)
			checked += float64(r.LinChecked)
			maxLog = max(maxLog, r.MaxLogLen)
		}
	}
	out.add("netsim.msgs_per_op", ratio(msgs, acked), "count")
	out.add("netsim.drop_frac", ratio(dropped, msgs), "frac")
	out.add("linearizability.explored_per_op", ratio(explored, checked), "count")
	out.add("rlog.max_len", float64(maxLog), "count")
	for j, name := range []string{"paxos", "pigpaxos"} {
		out.add("sim_gap_ms."+name, median(traced.column(j, func(r harness.ScenarioResult) float64 { return ms(r.AvailabilityGap) })), "ms")
		out.add("sim_ops_s."+name, median(traced.column(j, func(r harness.ScenarioResult) float64 { return r.Throughput })), "ops/s")
	}
	out.add("trace.overhead_frac", ratio(traced.cpuPerOp(), base.cpuPerOp())-1, "frac")
	return out, nil
}
