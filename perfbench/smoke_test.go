package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the program against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type result struct {
	Correct   bool
	Attempted uint64
	Failed    uint64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runWorkload runs one workload in-process for a tiny duration and returns
// its stdout lines and the parsed result line.
func runWorkload(t *testing.T, name string, trace int) ([]string, result) {
	t.Helper()
	dir := t.TempDir()
	var out bytes.Buffer
	code := run([]string{
		"--workload", name, "--seed", "7", "--seconds", "1",
		"--trace", fmt.Sprint(trace),
		"--out", filepath.Join(dir, "trace"),
	}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 0 {
		t.Fatalf("%s --trace %d exited %d:\n%s", name, trace, code, out.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if trace == 1 {
		for _, f := range []string{"spans.tsv", "cpu.pprof", "cpu.folded.txt"} {
			p := filepath.Join(dir, "trace", name+"-seed7", f)
			if st, err := os.Stat(p); err != nil || st.Size() == 0 {
				t.Errorf("traced run did not write %s: %v", f, err)
			}
		}
	}
	return lines, res
}

func TestWorkloadsPrintEveryMetricAndRunTheirChecks(t *testing.T) {
	spec := loadSpec(t)
	// The output checks each workload must report as run and passed.
	wantChecks := map[string][]string{
		"tcp-pig5-rw":        {"sentinel put/get", "replicas agree", "goroutines return"},
		"tcp-paxos3-wal":     {"sentinel put/get", "replicas agree", "goroutines return"},
		"sim25-leader-crash": {"linearizable, complete and converged", "repeated seed", "goroutines return"},
	}
	if len(spec.Workloads) != len(wantChecks) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(wantChecks))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for trace, metrics := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w.Name, trace), func(t *testing.T) {
				lines, res := runWorkload(t, w.Name, trace)
				if !res.Correct || res.Attempted == 0 {
					t.Errorf("correct %v attempted %d", res.Correct, res.Attempted)
				}
				if len(res.Metrics) != len(metrics) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(metrics))
				}
				for _, m := range metrics {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
					if trace == 0 && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				text := strings.Join(lines, "\n")
				for _, c := range wantChecks[w.Name] {
					if !strings.Contains(text, c) {
						t.Errorf("output check %q did not run:\n%s", c, text)
					}
				}
			})
		}
	}
}

func TestFailedCheckExitsNonZero(t *testing.T) {
	out := &outcome{attempted: 1}
	out.add("setup_s", 1, "s")
	out.check("always fails", errors.New("boom"))
	var buf bytes.Buffer
	if code := report(&buf, out); code != 1 {
		t.Fatalf("report returned %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct {
		t.Fatalf("want a result line with correct=false, got %q (%v)", lines[len(lines)-1], err)
	}
}

func TestFoldTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      20ms   pigpaxos/internal/wire.Encode
             pigpaxos/internal/transport.(*TCPNode).Send
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.notesleep
             runtime.findRunnable
             runtime.schedule
-----------+-------------------------------------------------------
      10ms   internal/runtime/syscall.Syscall6
             syscall.RawSyscall6
-----------+-------------------------------------------------------
      10ms   internal/runtime/maps.h2
             runtime.mapaccess2_fast64
-----------+-------------------------------------------------------
      10ms   main.(*tracedCtx).Send
-----------+-------------------------------------------------------
`
	folded, total, err := foldTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"wire": 20, "runtime_gc": 10, "runtime_sched": 10, "syscall": 10, "runtime_maps": 10, "perfbench": 10}
	if total.Milliseconds() != 70 {
		t.Errorf("total %v, want 70ms", total)
	}
	for l, ms := range want {
		if got := folded[l].Milliseconds(); got != int64(ms) {
			t.Errorf("%s: %dms, want %dms", l, got, ms)
		}
	}
}
