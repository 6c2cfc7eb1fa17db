package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// profLayers are the buckets a traced run's CPU samples fold into by the
// package of the sampled (leaf) function. runtime samples split into GC,
// scheduler, Go map operations and the rest by the frames beneath them;
// perfbench is the benchmark's own code, wrappers included.
var profLayers = []string{
	"des", "netsim", "rlog", "paxos", "pigpaxos", "kvstore", "wire",
	"transport", "wal", "metrics", "loadgen", "harness", "chaos",
	"linearizability", "syscall", "runtime_gc", "runtime_sched",
	"runtime_maps", "runtime_other", "perfbench", "other",
}

type profile struct {
	path string
	f    *os.File
}

func startProfile(path string) (*profile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{path: path, f: f}, nil
}

func (p *profile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// addProfile folds the profile by package with the installed
// `go tool pprof` and adds prof.<layer>.self_frac for every layer.
func addProfile(out *outcome, p *profile) error {
	cmd := exec.Command("go", "tool", "pprof", "-traces", p.path)
	text, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	folded, total, err := foldTraces(string(text))
	if err != nil {
		return err
	}
	if err := os.WriteFile(strings.TrimSuffix(p.path, filepath.Ext(p.path))+".folded.txt",
		[]byte(formatFolded(folded, total)), 0o644); err != nil {
		return err
	}
	for _, l := range profLayers {
		out.add("prof."+l+".self_frac", ratio(float64(folded[l]), float64(total)), "frac")
	}
	return nil
}

func formatFolded(folded map[string]time.Duration, total time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total %v\n", total)
	for _, l := range profLayers {
		fmt.Fprintf(&b, "%-16s %10v %6.2f%%\n", l, folded[l], 100*ratio(float64(folded[l]), float64(total)))
	}
	return b.String()
}

// foldTraces sums `go tool pprof -traces` output by layer. Each trace is a
// block opened by a dashed separator; its first line holds the sample
// value and the leaf function, the following lines the callers.
func foldTraces(text string) (map[string]time.Duration, time.Duration, error) {
	folded := make(map[string]time.Duration)
	var total time.Duration
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			folded[layerOf(stack)] += value
			total += value
		}
		stack = stack[:0]
	}
	inTraces := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		fields := strings.Fields(line)
		if !inTraces || len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			if len(fields) < 2 {
				continue
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, 0, fmt.Errorf("pprof trace value %q: %w", fields[0], err)
			}
			value = d
			stack = append(stack, fields[1])
			continue
		}
		if strings.Contains(fields[0], ":") && !strings.Contains(fields[0], ".") {
			continue // a label line
		}
		stack = append(stack, fields[0])
	}
	flush()
	if total == 0 {
		return nil, 0, fmt.Errorf("CPU profile holds no samples")
	}
	return folded, total, nil
}

var (
	gcFrames = []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.(*gcWork)",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
		"runtime.sysmon", "runtime.goschedImpl", "runtime.gopreempt_m", "runtime.netpoll",
		"runtime.stealWork", "runtime.startm", "runtime.wakep", "runtime.ready",
		"runtime.goready", "runtime.notewakeup", "runtime.notesleep", "runtime.mstart",
	}
)

// layerOf names the layer a sampled stack (leaf first) belongs to.
func layerOf(stack []string) string {
	pkg := packageOf(stack[0])
	switch {
	case pkg == "main":
		return "perfbench"
	case pkg == "syscall" || pkg == "internal/runtime/syscall":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		for _, f := range stack {
			if hasAnyPrefix(f, gcFrames) {
				return "runtime_gc"
			}
		}
		for _, f := range stack {
			if hasAnyPrefix(f, schedFrames) {
				return "runtime_sched"
			}
		}
		if pkg == "internal/runtime/maps" || strings.HasPrefix(stack[0], "runtime.map") {
			return "runtime_maps"
		}
		return "runtime_other"
	case strings.HasPrefix(pkg, "pigpaxos/internal/"):
		name := strings.TrimPrefix(pkg, "pigpaxos/internal/")
		for _, l := range profLayers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// packageOf returns the import path of a symbol such as
// "pigpaxos/internal/wire.(*Decoder).Decode".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if i := strings.Index(fn[slash+1:], "."); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// writeSpans writes the tracer's spans next to the profile.
func writeSpans(tr *tracer, dir string) error {
	n, err := tr.write(filepath.Join(dir, "spans.tsv"))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans and a CPU profile to %s\n", n, dir)
	return nil
}
