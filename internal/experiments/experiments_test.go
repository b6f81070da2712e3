package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"hpcsched/internal/metrics"
	"hpcsched/internal/noise"
	"hpcsched/internal/sim"
	"hpcsched/internal/trace"
	"hpcsched/internal/workloads"
)

// within asserts v ∈ [lo, hi].
func within(t *testing.T, name string, v, lo, hi float64) {
	t.Helper()
	if v < lo || v > hi {
		t.Errorf("%s = %.2f, want within [%.2f, %.2f]", name, v, lo, hi)
	}
}

func pct(tr TableResult, m Mode) float64 { return 100 * tr.ImprovementOf(m) }

func mustBaseline(t *testing.T, tr TableResult) Result {
	t.Helper()
	base, ok := tr.Baseline()
	if !ok {
		t.Fatalf("%s table has no leading Baseline row", tr.Workload)
	}
	return base
}

// TestTableWithoutBaseline: when the leading row is not Baseline (its
// replica failed), the table reports no baseline, no improvement and a
// "—" in the "vs base" column instead of comparing against another mode.
func TestTableWithoutBaseline(t *testing.T) {
	tr := TableResult{Workload: "metbench", Rows: []Result{
		{Config: Config{Mode: ModeUniform}, ExecTime: 80 * sim.Second},
		{Config: Config{Mode: ModeAdaptive}, ExecTime: 72 * sim.Second},
	}}
	if _, ok := tr.Baseline(); ok {
		t.Fatal("Baseline reported a row for a table led by Uniform")
	}
	if imp := tr.ImprovementOf(ModeAdaptive); imp != 0 {
		t.Fatalf("ImprovementOf(Adaptive) = %v without a baseline, want 0", imp)
	}
	for i := range tr.Rows {
		tr.Rows[i].Summaries = []metrics.TaskSummary{{Name: "P1"}}
	}
	out := tr.Format()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "Uniform") || strings.Contains(line, "Adaptive") {
			if !strings.HasSuffix(strings.TrimSpace(line), "—") {
				t.Fatalf("vs base must read \"—\" without a baseline:\n%s", out)
			}
		}
	}
}

// TestTableIII reproduces the MetBench table: baseline ≈ 81.78 s with the
// small-load workers at ≈25% comp; static and the dynamic heuristics
// recover ≈12-14%, with the large-load workers at priority 6.
func TestTableIII(t *testing.T) {
	tr := RunTable("metbench", 42)
	base := mustBaseline(t, tr)
	within(t, "baseline exec (s)", base.ExecTime.Seconds(), 78, 87)
	within(t, "baseline P1 comp%", base.Summaries[0].CompPct, 22, 28)
	within(t, "baseline P2 comp%", base.Summaries[1].CompPct, 97, 100)
	within(t, "static improvement%", pct(tr, ModeStatic), 10, 17)
	within(t, "uniform improvement%", pct(tr, ModeUniform), 10, 17)
	within(t, "adaptive improvement%", pct(tr, ModeAdaptive), 9, 16)
	for _, r := range tr.Rows {
		if r.Config.Mode == ModeUniform {
			if r.Summaries[1].HWPrio != 6 || r.Summaries[3].HWPrio != 6 {
				t.Errorf("uniform did not raise the large workers to 6: %+v", r.Summaries)
			}
			if r.Summaries[0].HWPrio != 4 {
				t.Errorf("uniform moved the small worker off 4: %+v", r.Summaries[0])
			}
			// Balanced stable state: small workers compute ≥90%.
			within(t, "uniform P1 comp%", r.Summaries[0].CompPct, 88, 100)
		}
	}
}

// TestTableIV reproduces MetBenchVar: the static assignment wins on the
// normal periods but loses the reversed one, so the dynamic heuristics
// beat it overall.
func TestTableIV(t *testing.T) {
	tr := RunTable("metbenchvar", 42)
	base := mustBaseline(t, tr)
	within(t, "baseline exec (s)", base.ExecTime.Seconds(), 350, 390)
	within(t, "baseline P1 comp%", base.Summaries[0].CompPct, 46, 54)
	within(t, "baseline P2 comp%", base.Summaries[1].CompPct, 71, 79)
	st, un, ad := pct(tr, ModeStatic), pct(tr, ModeUniform), pct(tr, ModeAdaptive)
	within(t, "static improvement%", st, 4, 12)
	within(t, "uniform improvement%", un, 6, 15)
	within(t, "adaptive improvement%", ad, 8, 16)
	if un <= st {
		t.Errorf("uniform (%.1f%%) must beat static (%.1f%%) on the dynamic workload", un, st)
	}
	if ad <= st {
		t.Errorf("adaptive (%.1f%%) must beat static (%.1f%%) on the dynamic workload", ad, st)
	}
}

// TestTableV reproduces BT-MZ: zone-skewed utilizations, P4 raised to 6,
// P1 slowed hard by sharing P4's core (its utilization multiplies), and a
// double-digit improvement.
func TestTableV(t *testing.T) {
	tr := RunTable("btmz", 42)
	base := mustBaseline(t, tr)
	within(t, "baseline exec (s)", base.ExecTime.Seconds(), 90, 101)
	within(t, "baseline P1 comp%", base.Summaries[0].CompPct, 14, 21)
	within(t, "baseline P2 comp%", base.Summaries[1].CompPct, 25, 36)
	within(t, "baseline P3 comp%", base.Summaries[2].CompPct, 58, 72)
	within(t, "baseline P4 comp%", base.Summaries[3].CompPct, 97, 100)
	within(t, "static improvement%", pct(tr, ModeStatic), 7, 16)
	within(t, "uniform improvement%", pct(tr, ModeUniform), 7, 16)
	within(t, "adaptive improvement%", pct(tr, ModeAdaptive), 7, 16)
	for _, r := range tr.Rows {
		switch r.Config.Mode {
		case ModeUniform:
			if r.Summaries[3].HWPrio < 5 {
				t.Errorf("uniform left P4 at %d, want ≥5", r.Summaries[3].HWPrio)
			}
			// P1 shares P4's core: its utilization multiplies under the
			// priority difference (the paper's 17.63 → 70.31 signature).
			if r.Summaries[0].CompPct < 2.2*base.Summaries[0].CompPct {
				t.Errorf("P1 not visibly slowed: %.1f%% vs baseline %.1f%%",
					r.Summaries[0].CompPct, base.Summaries[0].CompPct)
			}
		case ModeStatic:
			if r.Summaries[0].CompPct < 2*base.Summaries[0].CompPct {
				t.Errorf("static P1 not visibly slowed: %.1f%%", r.Summaries[0].CompPct)
			}
		}
	}
}

// TestTableVI reproduces SIESTA: modest improvement coming from the
// scheduling policy rather than balancing — worker utilizations barely
// move (they rise only because the runtime shrinks).
func TestTableVI(t *testing.T) {
	tr := RunTable("siesta", 42)
	base := mustBaseline(t, tr)
	within(t, "baseline exec (s)", base.ExecTime.Seconds(), 78, 90)
	within(t, "baseline P1 comp%", base.Summaries[0].CompPct, 96, 100)
	within(t, "baseline P2 comp%", base.Summaries[1].CompPct, 46, 58)
	within(t, "baseline P3 comp%", base.Summaries[2].CompPct, 23, 34)
	within(t, "baseline P4 comp%", base.Summaries[3].CompPct, 16, 25)
	within(t, "uniform improvement%", pct(tr, ModeUniform), 2, 10)
	within(t, "adaptive improvement%", pct(tr, ModeAdaptive), 2, 10)
	for _, r := range tr.Rows {
		if r.Config.Mode == ModeUniform {
			// Balancing is marginal: worker utilizations stay within a
			// few points of the baseline.
			for i := 1; i < 4; i++ {
				d := r.Summaries[i].CompPct - base.Summaries[i].CompPct
				if d < -8 || d > 8 {
					t.Errorf("P%d utilization moved %.1f points; SIESTA balancing should be marginal", i+1, d)
				}
			}
		}
	}
}

// TestSiestaGainIsPolicyNotBalance isolates the paper's §V-D conclusion:
// running SIESTA under the HPC class with the mechanism disabled (no
// priority changes possible) still recovers most of the improvement.
func TestSiestaGainIsPolicyNotBalance(t *testing.T) {
	base := Run(Config{Workload: "siesta", Mode: ModeBaseline, Seed: 42})
	policyOnly := Run(Config{Workload: "siesta", Mode: ModeHPCOnly, Seed: 42})
	imp := 100 * (1 - policyOnly.ExecTime.Seconds()/base.ExecTime.Seconds())
	within(t, "policy-only improvement%", imp, 2, 10)
}

// TestHPCOnlyNeverChangesPriorities sanity-checks the ablation mode.
func TestHPCOnlyNeverChangesPriorities(t *testing.T) {
	r := Run(Config{Workload: "metbench", Mode: ModeHPCOnly, Seed: 42})
	for _, s := range r.Summaries {
		if s.HWPrio != 4 {
			t.Errorf("%s priority = %d under HPC-only mode, want 4", s.Name, s.HWPrio)
		}
	}
	if r.HPC.Changes != 0 {
		t.Errorf("HPC-only mode recorded %d priority changes", r.HPC.Changes)
	}
}

// TestDeterministicRuns: identical configs produce identical results.
func TestDeterministicRuns(t *testing.T) {
	a := Run(Config{Workload: "metbench", Mode: ModeAdaptive, Seed: 7})
	b := Run(Config{Workload: "metbench", Mode: ModeAdaptive, Seed: 7})
	if a.ExecTime != b.ExecTime {
		t.Fatalf("nondeterministic: %v vs %v", a.ExecTime, b.ExecTime)
	}
	for i := range a.Summaries {
		if a.Summaries[i].CompPct != b.Summaries[i].CompPct {
			t.Fatalf("nondeterministic utilizations at rank %d", i)
		}
	}
	c := Run(Config{Workload: "metbench", Mode: ModeAdaptive, Seed: 8})
	if a.ExecTime == c.ExecTime {
		t.Log("warning: different seeds produced identical exec times (possible but unlikely)")
	}
}

// TestSeedRobustness: the headline improvements hold across seeds.
func TestSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, seed := range []uint64{1, 99, 12345} {
		tr := RunTable("metbench", seed)
		within(t, "uniform improvement%", pct(tr, ModeUniform), 9, 18)
	}
}

// TestFigure3Traces renders the MetBench traces (Figure 3): the baseline
// shows long waits on the small workers; the balanced runs show them
// computing nearly the whole time.
func TestFigure3Traces(t *testing.T) {
	base := Run(Config{Workload: "metbench", Mode: ModeBaseline, Seed: 42, Trace: true})
	if base.Recorder == nil {
		t.Fatal("trace missing")
	}
	out := base.Recorder.Render(trace.RenderOptions{Width: 80})
	if !strings.Contains(out, "P1") || !strings.Contains(out, "#") {
		t.Fatalf("render malformed:\n%s", out)
	}
	// P1 waits most of the iteration in the baseline.
	p1 := base.Recorder.Traces()[0]
	if p1.Name != "M" && p1.Name != "P1" {
		t.Fatalf("unexpected first trace %q", p1.Name)
	}
	uni := Run(Config{Workload: "metbench", Mode: ModeUniform, Seed: 42, Trace: true})
	for _, tt := range uni.Recorder.Traces() {
		if tt.Name == "P1" {
			if got := tt.CompPct(0, uni.ExecTime); got < 85 {
				t.Errorf("uniform P1 trace comp%% = %.1f, want ≥85 (Fig. 3c)", got)
			}
		}
	}
	prv := base.Recorder.ExportPRV()
	if !strings.HasPrefix(prv, "#Paraver") {
		t.Error("PRV export malformed")
	}
}

// TestFigure4Recovery checks the paper's Figure 4 narrative: after the
// load reversal the dynamic scheduler re-balances within a few iterations
// (visible in the decision logs of the ranks).
func TestFigure4Recovery(t *testing.T) {
	r := Run(Config{Workload: "metbenchvar", Mode: ModeAdaptive, Seed: 42})
	// P2 starts large (raised to 6), becomes small at iteration 15: its
	// priority must come back down within 3 iterations of the switch.
	if len(r.Tasks) < 2 {
		t.Fatal("tasks missing")
	}
	if r.HPC.Changes < 6 {
		t.Errorf("adaptive made only %d changes across the reversals", r.HPC.Changes)
	}
	// Final period (odd count of reversals → P2 ends small → priority 4...
	// with 3 periods P2 is large again in period 3 → ends at 6.
	if got := r.Summaries[1].HWPrio; got != 6 {
		t.Errorf("P2 final priority = %d, want 6 (large in the final period)", got)
	}
}

// TestNoiseSensitivity: heavier OS noise hurts the CFS-based modes more
// than the HPC class (which preempts daemons by class order).
func TestNoiseSensitivity(t *testing.T) {
	heavy := noise.Heavy()
	baseHeavy := Run(Config{Workload: "metbench", Mode: ModeBaseline, Seed: 42, Noise: &heavy})
	uniHeavy := Run(Config{Workload: "metbench", Mode: ModeUniform, Seed: 42, Noise: &heavy})
	imp := 100 * (1 - uniHeavy.ExecTime.Seconds()/baseHeavy.ExecTime.Seconds())
	if imp < 12 {
		t.Errorf("under heavy noise the HPC class should win big; got %.1f%%", imp)
	}
}

// TestTableFormatting checks the human-readable rendering.
func TestTableFormatting(t *testing.T) {
	tr := RunTable("metbench", 42)
	out := tr.Format()
	for _, want := range []string{"Baseline 2.6.24", "Static", "Uniform", "Adaptive",
		"P1", "P4", "% Comp", "vs base"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table misses %q", want)
		}
	}
	if len(TableModes("siesta")) != 3 {
		t.Error("siesta table must have no Static row")
	}
	if len(TableModes("metbench")) != 4 {
		t.Error("metbench table must have 4 rows")
	}
}

// TestModeStrings covers the Stringers.
func TestModeStrings(t *testing.T) {
	names := map[Mode]string{
		ModeBaseline: "Baseline 2.6.24",
		ModeStatic:   "Static",
		ModeUniform:  "Uniform",
		ModeAdaptive: "Adaptive",
		ModeHybrid:   "Hybrid",
		ModeHPCOnly:  "HPC-policy-only",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if ModeBaseline.UsesHPCClass() || !ModeUniform.UsesHPCClass() {
		t.Error("UsesHPCClass wrong")
	}
}

// TestUnknownWorkloadPanics guards the registry.
func TestUnknownWorkloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown workload did not panic")
		}
	}()
	Run(Config{Workload: "bogus", Mode: ModeBaseline, Seed: 1})
}

// TestRunCtxUnknownWorkload: RunCtx names the known workloads in its error
// and returns before building anything, on one node and on a cluster, so
// no process is left behind.
func TestRunCtxUnknownWorkload(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			before := runtime.NumGoroutine()
			err := func() (err error) {
				defer func() {
					if v := recover(); v != nil {
						err = fmt.Errorf("panicked: %v", v)
					}
				}()
				_, err = RunCtx(context.Background(), Config{Workload: "foo", Seed: 1, Nodes: nodes})
				return err
			}()
			if err == nil || !strings.Contains(err.Error(), strings.Join(workloads.Names(), ", ")) ||
				strings.Contains(err.Error(), "panicked") {
				t.Fatalf("err = %v, want an error naming %v", err, workloads.Names())
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("goroutines: %d before, %d after; processes leaked", before, after)
			}
		})
	}
}

// TestRunCtxUnknownTopology: a misspelt topology is rejected before
// anything is built, on one node (where it used to be ignored) and on a
// cluster alike.
func TestRunCtxUnknownTopology(t *testing.T) {
	for _, nodes := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			before := runtime.NumGoroutine()
			res, err := RunCtx(context.Background(), Config{
				Workload: "metbench", Seed: 1, Nodes: nodes, Topology: "bogus",
			})
			if err == nil || !strings.Contains(err.Error(), `unknown topology "bogus" (flat|ring|star)`) {
				t.Fatalf("err = %v, want an unknown-topology error", err)
			}
			if res.Kernel != nil || res.Cluster != nil {
				t.Fatal("a machine was built for an invalid config")
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("goroutines: %d before, %d after; processes leaked", before, after)
			}
		})
	}
}

// TestConfigValidate: Validate accepts every workload on every topology,
// "" included, at any node count, and rejects an unknown name of either.
func TestConfigValidate(t *testing.T) {
	for _, wl := range workloads.Names() {
		for _, topo := range []string{"", "flat", "ring", "star"} {
			for _, nodes := range []int{1, 4} {
				c := Config{Workload: wl, Topology: topo, Nodes: nodes}
				if err := c.Validate(); err != nil {
					t.Errorf("%+v: %v", c, err)
				}
			}
		}
	}
	for _, c := range []Config{
		{Workload: "", Topology: "flat"},
		{Workload: "MetBench"},
		{Workload: "metbench", Topology: "mesh"},
		{Workload: "metbench", Topology: "Flat", Nodes: 2},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted workload %q topology %q", c.Workload, c.Topology)
		}
	}
}

// TestStaticMetBenchEightWorkers: a single-node Static MetBench with eight
// workers repeats the four hand-tuned priorities, as a cluster run tiles
// them across nodes.
func TestStaticMetBenchEightWorkers(t *testing.T) {
	res := Run(Config{Workload: "metbench", Mode: ModeStatic, Seed: 1,
		TweakMetBench: func(c *workloads.MetBenchConfig) {
			c.Workers = 8
			c.Iterations = 2
			c.SmallWork = 5 * sim.Millisecond
			c.LargeWork = 20 * sim.Millisecond
		}})
	if len(res.Tasks) != 9 {
		t.Fatalf("tasks = %d, want 8 workers + master", len(res.Tasks))
	}
	want := workloads.MetBenchStaticPrios()
	for i := 0; i < 8; i++ {
		if got := res.Tasks[i].HWPrio; got != want[i%len(want)] {
			t.Errorf("P%d priority = %v, want %v", i+1, got, want[i%len(want)])
		}
	}
}

func TestParseMode(t *testing.T) {
	for name, ok := range map[string]bool{
		"baseline": true, "cfs": true, "static": true, "uniform": true,
		"adaptive": true, "hybrid": true, "policy-only": true, "hpconly": true,
		"UNIFORM": true, "bogus": false,
	} {
		_, err := ParseMode(name)
		if (err == nil) != ok {
			t.Errorf("ParseMode(%q) err=%v, want ok=%v", name, err, ok)
		}
	}
}
