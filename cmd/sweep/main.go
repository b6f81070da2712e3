// Command sweep explores the HPC scheduler's tunables: the Adaptive G/L
// weights, the utilization thresholds, the explored priority range, the
// OS noise level, the queue discipline and the fault-injection intensity —
// the ablations discussed in docs/ARCHITECTURE.md.
//
// Every sweep point can be replicated over several derived seeds
// (-seeds N), and the whole (point × seed) grid runs on the hardened
// parallel batch layer (-parallel W, default one worker per CPU): a
// replica that panics, stalls or blows -replica-timeout is recorded as a
// failure (and retried up to -max-retries times on fresh derived seeds)
// while the rest of the sweep completes. Fault-free results are
// deterministic at any worker count. Output is an aligned table by
// default; -format json or -format csv emit machine-readable rows,
// including per-cell failed/degraded replica counts.
//
// -what select runs the SimAS-style scheduling-algorithm selection sweep
// instead: every scheduler mode over a perturbation scenario grid
// (-faults SPEC replaces the built-in three-scenario grid; -quick shrinks
// the workloads to CI size), for both the chosen -workload and the
// MatMulDAG workload, scoring each fault-delimited phase and reporting
// per-phase winners plus the switch-at-phase-boundary oracle with 95% CI.
//
// Usage:
//
//	sweep -what gl         -workload metbenchvar
//	sweep -what thresholds -workload metbench -seeds 5
//	sweep -what priorange  -workload metbench -seeds 5 -format csv
//	sweep -what noise      -workload siesta -parallel 4 -format json
//	sweep -what faults     -workload metbench -seeds 5 -format json
//	sweep -what select     -workload metbench -quick
//	sweep -what select     -workload siesta -faults "slow:n=2,dur=6s,by=20s"
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hpcsched/internal/batch"
	"hpcsched/internal/core"
	"hpcsched/internal/experiments"
	"hpcsched/internal/faults"
	"hpcsched/internal/metrics"
	"hpcsched/internal/noise"
	"hpcsched/internal/power5"
	"hpcsched/internal/selector"
)

// point is one sweep cell: a named configuration plus the baseline its
// improvement is measured against. baseKey groups points that share a
// baseline so each distinct baseline runs only once per seed.
type point struct {
	name    string
	baseKey string
	cfg     func(seed uint64) experiments.Config
	base    func(seed uint64) experiments.Config
}

// row is one aggregated output line.
type row struct {
	Config    string  `json:"config"`
	Runs      int     `json:"runs"`
	ExecMeanS float64 `json:"exec_mean_s"`
	ExecStdS  float64 `json:"exec_std_s"`
	BaseMeanS float64 `json:"base_exec_mean_s"`
	ImpMean   float64 `json:"improvement_mean_pct"`
	ImpCI95   float64 `json:"improvement_ci95_pct"`
	Imbalance float64 `json:"imbalance_mean"`
	// FailedRuns counts the cell's replicas that did not finish (panic,
	// watchdog abort, timeout, wedge) after all retries; Runs counts the
	// ones that did. DegradedRuns counts finished replicas slower than
	// their same-seed baseline — the graceful-degradation signal of a
	// fault-intensity sweep.
	FailedRuns   int `json:"failed_runs"`
	DegradedRuns int `json:"degraded_runs"`
}

func main() {
	what := flag.String("what", "gl", "gl | thresholds | priorange | noise | policy | faults | select")
	wl := flag.String("workload", "metbench", "workload name")
	seed := flag.Uint64("seed", 42, "base simulation seed")
	nseeds := flag.Int("seeds", 1, "replicas per sweep point, over seeds derived from -seed")
	workers := flag.Int("parallel", 0, "worker pool size (0 = one per CPU)")
	format := flag.String("format", "table", "table | json | csv")
	progress := flag.Bool("progress", false, "report batch progress on stderr")
	var fv faults.FlagValue
	flag.Var(&fv, "faults", `-what select: custom perturbation spec replacing the built-in scenario grid`)
	quick := flag.Bool("quick", false, "-what select: shrink workloads to CI smoke size")
	nodes := flag.Int("nodes", 1, "simulated cluster nodes per run (>1 sweeps the multi-node PDES configuration)")
	topology := flag.String("topology", "flat", "inter-node latency shape for -nodes > 1: flat|ring|star")
	replicaTimeout := flag.Duration("replica-timeout", 0, "per-replica wall-clock deadline (0 = none)")
	maxRetries := flag.Int("max-retries", 0, "retries per failed replica, each on a fresh derived seed")
	stallTimeout := flag.Duration("stall-timeout", 0, "per-replica sim-clock liveness watchdog (0 = off)")
	flag.Parse()
	if err := (experiments.Config{Workload: *wl, Topology: *topology}).Validate(); err != nil {
		// Reject before any run: every replica of an invalid config would
		// fail, and the sweep would print a table of failed cells.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	exec := experiments.ExecOptions{
		Workers: *workers,
		Timeout: *replicaTimeout, MaxRetries: *maxRetries,
		StallTimeout: *stallTimeout,
		// A replica that panics under a fault-heavy point is recorded as a
		// failure instead of crashing the sweep, knobs or not.
		Harden: true,
	}
	if *progress {
		exec.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d runs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	if *what == "select" {
		runSelect(*wl, fv, *quick, *seed, *nseeds, *format, exec)
		return
	}

	points := buildPoints(*what, *wl, func(c *experiments.Config) {
		// Cluster knobs apply to every sweep point AND its baseline, so
		// improvements compare multi-node runs against multi-node runs.
		c.Nodes = *nodes
		c.Topology = *topology
	})
	if points == nil {
		fmt.Fprintf(os.Stderr, "unknown sweep %q\n", *what)
		os.Exit(2)
	}
	switch *format {
	case "table", "json", "csv":
	default:
		// Reject before the batch runs: a bad format should not cost a
		// full sweep's worth of simulation first.
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	}

	seeds := []uint64{*seed}
	if *nseeds > 1 {
		seeds = experiments.SeedsFrom(*seed, *nseeds)
	}

	// Flatten the grid in a fixed order — distinct baselines first, then
	// the sweep points, each seed-major — so the batch's ordered results
	// map back by index arithmetic alone.
	var cfgs []experiments.Config
	baseAt := map[string]int{} // baseKey → index of its first seed's run
	for _, p := range points {
		if _, ok := baseAt[p.baseKey]; ok {
			continue
		}
		baseAt[p.baseKey] = len(cfgs)
		for _, s := range seeds {
			cfgs = append(cfgs, p.base(s))
		}
	}
	pointAt := make([]int, len(points))
	for i, p := range points {
		pointAt[i] = len(cfgs)
		for _, s := range seeds {
			cfgs = append(cfgs, p.cfg(s))
		}
	}

	// The sweep grid is heterogeneous (per-point Params/Noise/Faults), so
	// it runs through RunConfigs, the unified pool's escape hatch; the
	// hardened options keep a failing cell from costing the whole sweep.
	res, oks, _, err := experiments.RunConfigs(context.Background(), cfgs, exec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	rows := make([]row, len(points))
	for i, p := range points {
		execs := make([]float64, len(seeds))
		execOK := make([]bool, len(seeds))
		bases := make([]float64, len(seeds))
		baseOK := make([]bool, len(seeds))
		imps := make([]float64, len(seeds))
		impOK := make([]bool, len(seeds))
		imbs := make([]float64, len(seeds))
		degraded := 0
		for j := range seeds {
			r := res[pointAt[i]+j]
			b := res[baseAt[p.baseKey]+j]
			execOK[j] = oks[pointAt[i]+j]
			baseOK[j] = oks[baseAt[p.baseKey]+j]
			impOK[j] = execOK[j] && baseOK[j]
			execs[j] = r.ExecTime.Seconds()
			bases[j] = b.ExecTime.Seconds()
			if impOK[j] {
				imps[j] = 100 * metrics.Improvement(b.ExecTime, r.ExecTime)
				if r.ExecTime > b.ExecTime {
					degraded++
				}
			}
			imbs[j] = r.Imbalance
		}
		e := batch.SummarizeFinished(execs, execOK)
		b := batch.SummarizeFinished(bases, baseOK)
		imp := batch.SummarizeFinished(imps, impOK)
		imb := batch.SummarizeFinished(imbs, execOK)
		rows[i] = row{
			Config: p.name, Runs: e.N,
			ExecMeanS: e.Mean, ExecStdS: e.Std, BaseMeanS: b.Mean,
			ImpMean: imp.Mean, ImpCI95: imp.CI95,
			Imbalance:  imb.Mean,
			FailedRuns: e.Failed, DegradedRuns: degraded,
		}
	}

	if err := emit(os.Stdout, *format, rows); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runSelect runs the scheduling-algorithm selection sweep: every mode over
// a perturbation scenario grid for both the chosen workload and MatMulDAG,
// scored per fault-delimited phase (see internal/selector). The default is
// three replica seeds; -seeds N>1 replaces them with N seeds derived from
// -seed. The report has exactly one shape, so only the table format exists.
func runSelect(wl string, fv faults.FlagValue, quick bool, seed uint64, nseeds int, format string, exec experiments.ExecOptions) {
	if format != "table" {
		fmt.Fprintf(os.Stderr, "-what select emits its own report; -format %s is not supported\n", format)
		os.Exit(2)
	}
	grid := func(workload string) []selector.Scenario {
		if fv.Text != "" {
			sc := selector.Scenario{
				Name: "custom", Workload: workload,
				Faults: fv.Spec, FaultText: fv.Text,
			}
			if quick {
				sc.Tweak = selector.Shrink
			}
			return []selector.Scenario{sc}
		}
		if quick {
			return selector.QuickScenarios(workload)
		}
		return selector.DefaultScenarios(workload)
	}
	scenarios := grid(wl)
	if wl != "matmul" {
		// The selection question is workload-shaped: always include the
		// heterogeneous task-DAG workload next to the chosen MPI one.
		scenarios = append(scenarios, grid("matmul")...)
	}
	opts := selector.Options{Exec: exec}
	if nseeds > 1 {
		opts.Seeds = experiments.SeedsFrom(seed, nseeds)
	}
	rep, err := selector.Run(context.Background(), scenarios, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(rep.Format())
}

// buildPoints enumerates the sweep grid; nil means an unknown sweep. every
// is applied to every config (points and baselines alike) — the cluster
// knobs ride it.
func buildPoints(what, wl string, every func(*experiments.Config)) []point {
	mk := func(mode experiments.Mode, mut func(*experiments.Config)) func(uint64) experiments.Config {
		return func(seed uint64) experiments.Config {
			c := experiments.Config{Workload: wl, Mode: mode, Seed: seed}
			if every != nil {
				every(&c)
			}
			if mut != nil {
				mut(&c)
			}
			return c
		}
	}
	defaultBase := mk(experiments.ModeBaseline, nil)
	var points []point
	add := func(name string, cfg func(uint64) experiments.Config) {
		points = append(points, point{name: name, baseKey: "default", cfg: cfg, base: defaultBase})
	}
	switch what {
	case "gl":
		for _, l := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
			l := l
			add(fmt.Sprintf("adaptive L=%.2f G=%.2f", l, 1-l),
				mk(experiments.ModeAdaptive, func(c *experiments.Config) {
					p := core.DefaultParams()
					p.L, p.G = l, 1-l
					c.Params = p
				}))
		}
	case "thresholds":
		for _, th := range [][2]float64{{50, 70}, {60, 80}, {65, 85}, {70, 90}, {75, 95}} {
			th := th
			add(fmt.Sprintf("uniform low=%g high=%g", th[0], th[1]),
				mk(experiments.ModeUniform, func(c *experiments.Config) {
					p := core.DefaultParams()
					p.LowUtil, p.HighUtil = th[0], th[1]
					c.Params = p
				}))
		}
	case "priorange":
		for _, pr := range [][2]power5.Priority{{4, 4}, {4, 5}, {4, 6}, {3, 6}, {2, 6}, {1, 6}} {
			pr := pr
			add(fmt.Sprintf("uniform prio [%d,%d]", pr[0], pr[1]),
				mk(experiments.ModeUniform, func(c *experiments.Config) {
					p := core.DefaultParams()
					p.MinPrio, p.MaxPrio = pr[0], pr[1]
					c.Params = p
				}))
		}
	case "noise":
		for _, duty := range []float64{0, 0.0025, 0.005, 0.01, 0.02, 0.04} {
			nz := noise.DefaultConfig()
			if duty == 0 {
				nz = noise.Silent()
			} else {
				nz.Duty = duty
			}
			withNoise := func(c *experiments.Config) { c.Noise = &nz }
			points = append(points, point{
				name:    fmt.Sprintf("uniform duty=%.2f%%/daemon", 100*duty),
				baseKey: fmt.Sprintf("duty=%g", duty),
				cfg:     mk(experiments.ModeUniform, withNoise),
				base:    mk(experiments.ModeBaseline, withNoise),
			})
		}
	case "policy":
		for _, d := range []core.Discipline{core.DisciplineRR, core.DisciplineFIFO} {
			d := d
			add(fmt.Sprintf("uniform %v", d),
				mk(experiments.ModeUniform, func(c *experiments.Config) { c.Discipline = d }))
		}
	case "faults":
		// Perturbation intensity axis: every point measures the Uniform
		// scheduler against its own fault-free runs, so "vs base" reads as
		// the cost of the injected faults.
		cleanBase := mk(experiments.ModeUniform, nil)
		for _, fp := range []struct{ name, spec string }{
			{"none", ""},
			{"slow mild", "slow:n=2,factor=0.7,dur=5s,by=60s"},
			{"slow heavy", "slow:n=4,factor=0.4,dur=10s,by=60s"},
			{"stalls", "stall:n=3,dur=250ms,by=60s"},
			{"storms", "storm:n=2,dur=2s,by=60s,daemons=2,duty=0.25"},
			{"mpi delay", "mpidelay:n=3,extra=500us,dur=5s,by=60s"},
			{"core loss", "loss:by=60s"},
			{"combined", "slow:n=2,factor=0.5,dur=5s,by=60s;storm:dur=2s,by=60s;mpidelay:extra=200us,dur=5s,by=60s"},
		} {
			spec := faults.MustParse(fp.spec)
			points = append(points, point{
				name:    "faults " + fp.name,
				baseKey: "uniform-clean",
				cfg: mk(experiments.ModeUniform, func(c *experiments.Config) {
					c.Faults = spec
				}),
				base: cleanBase,
			})
		}
	default:
		return nil
	}
	return points
}

func emit(out *os.File, format string, rows []row) error {
	switch format {
	case "table":
		header := []string{"Config", "Exec", "Base", "vs base", "Imbalance", "Fail/Degr"}
		tbl := make([][]string, len(rows))
		for i, r := range rows {
			vs := fmt.Sprintf("%+.1f%%", r.ImpMean)
			if r.Runs > 1 {
				vs = fmt.Sprintf("%+.1f%% ± %.1f", r.ImpMean, r.ImpCI95)
			}
			tbl[i] = []string{
				r.Config,
				fmt.Sprintf("%.2fs ± %.2f", r.ExecMeanS, r.ExecStdS),
				fmt.Sprintf("%.2fs", r.BaseMeanS),
				vs,
				fmt.Sprintf("%.3f", r.Imbalance),
				fmt.Sprintf("%d/%d", r.FailedRuns, r.DegradedRuns),
			}
		}
		fmt.Fprint(out, metrics.Table(header, tbl))
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	case "csv":
		w := csv.NewWriter(out)
		w.Write([]string{"config", "runs", "exec_mean_s", "exec_std_s",
			"base_exec_mean_s", "improvement_mean_pct", "improvement_ci95_pct",
			"imbalance_mean", "failed_runs", "degraded_runs"})
		for _, r := range rows {
			w.Write([]string{
				r.Config, fmt.Sprintf("%d", r.Runs),
				fmt.Sprintf("%.6f", r.ExecMeanS), fmt.Sprintf("%.6f", r.ExecStdS),
				fmt.Sprintf("%.6f", r.BaseMeanS),
				fmt.Sprintf("%.4f", r.ImpMean), fmt.Sprintf("%.4f", r.ImpCI95),
				fmt.Sprintf("%.6f", r.Imbalance),
				fmt.Sprintf("%d", r.FailedRuns), fmt.Sprintf("%d", r.DegradedRuns),
			})
		}
		w.Flush()
		return w.Error()
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	return nil
}
