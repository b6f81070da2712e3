// Command perfbench is the repository's benchmark. It runs one named
// workload through the public facade (hpcsched.Run, hpcsched.Sweep) in one
// process at GOMAXPROCS = pool workers = cluster shards = the CPU count,
// checks every output against a reference, and prints its metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 260, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no hook
// installed beyond what unit timing needs. With -trace 1 the same workload
// runs again with per-unit hooks, counting tracers and a CPU profile, plus
// drivers that time each layer's public functions directly; the metrics are
// then the per-layer ones. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload paper-repro --seed 42 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

const (
	// goldenSeed is the seed the repository's table goldens were captured
	// at; byte-equality with them is checked only at this seed.
	goldenSeed = 42
	// heldOutSeed is never used while tuning the program or the benchmark:
	// a claimed gain must also hold on it.
	heldOutSeed = 20081115
)

// metricDef names a metric and its unit. The lists below are the contract
// with BENCHMARK.json (the self-test checks that they agree).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports on every workload.
var endToEnd = []metricDef{
	{"ns_per_event", "ns/event"},
	{"unit_ms_p50", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"allocs_per_event", "allocs/event"},
}

// perLayer are the metrics a -trace 1 run reports on every workload. Counts
// are per pass (one pass = one closed-loop round of the workload's units);
// a layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{"experiments.build_ms", "ms"},
	{"experiments.run_ms", "ms"},
	{"experiments.self_pct", "%"},
	{"sim.events", "count"},
	{"sim.fired", "count"},
	{"sim.scheduled", "count"},
	{"sim.cancelled", "count"},
	{"sim.self_pct", "%"},
	{"sim.schedule_fire_ns", "ns"},
	{"sched.ticks_elided", "count"},
	{"sched.wakeups", "count"},
	{"sched.migrations", "count"},
	{"sched.state_changes", "count"},
	{"sched.hwprio_changes", "count"},
	{"sched.self_pct", "%"},
	{"proc.processes", "count"},
	{"proc.self_pct", "%"},
	{"proc.roundtrip_ns", "ns"},
	{"mpi.msgs", "count"},
	{"mpi.bytes", "B"},
	{"mpi.remote_msgs", "count"},
	{"mpi.self_pct", "%"},
	{"mpi.pingpong_ns", "ns"},
	{"trace.records", "count"},
	{"trace.record_ns", "ns"},
	{"trace.self_pct", "%"},
	{"cluster.windows", "count"},
	{"cluster.windows_elided", "count"},
	{"cluster.events_per_window", "events/window"},
	{"cluster.self_pct", "%"},
	{"cluster.shard_speedup", "x"},
	{"batch.busy_frac", "ratio"},
	{"batch.speedup", "x"},
	{"batch.failed", "count"},
	{"batch.self_pct", "%"},
	{"faults.actions", "count"},
	{"faults.self_pct", "%"},
	{"other.self_pct", "%"},
	{"runtime.self_pct", "%"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.explained_pct", "%"},
	{"bench.explained_base_ms", "ms"},
	{"bench.profile_samples", "count"},
}

// options are the command-line inputs of one run.
type options struct {
	root     string
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// report is what a run prints: the metrics of its mode, human-only lines
// (metrics outside the JSON contract, shapes, correctness notes) and the
// correctness verdict.
type report struct {
	metrics   map[string]float64
	info      []string
	attempted int
	failed    int
	problems  []string
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// fail records a correctness problem; any problem makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs one workload and prints the report. It returns the
// process exit code: 0 when every output was correct, 1 on a correctness
// failure, 2 when the run could not be made at all (bad flags, missing
// repository files, an error from the program).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.root, "root", ".", "repository root (reference files are read from it)")
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", goldenSeed, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(o.workload)
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds ≥ 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	o.trace = trace == 1
	if _, err := os.Stat(filepath.Join(o.root, "go.mod")); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s is not the repository root: %v\n", o.root, err)
		return 2
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	rep := &report{metrics: map[string]float64{}}
	rep.infof("machine nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	rep.infof("run workload=%s seed=%d seconds=%d trace=%d shape=%q",
		w.name, o.seed, o.seconds, trace, w.shape())

	ctx := context.Background()
	var err error
	if o.trace {
		err = tracedRun(ctx, o, w, rep)
	} else {
		err = timedRun(ctx, o, w, rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := writeReport(stdout, rep, o.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

// writeReport prints the human-readable lines, then the JSON result line.
func writeReport(out io.Writer, rep *report, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	var b strings.Builder
	for _, line := range rep.info {
		fmt.Fprintf(&b, "# %s\n", line)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(&b, "# INCORRECT %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(&b, "%-28s %16.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(out, b.String())
	return err
}
