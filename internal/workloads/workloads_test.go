package workloads

import (
	"fmt"
	"testing"

	"hpcsched/internal/core"
	"hpcsched/internal/power5"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

func newKernel(seed uint64) *sched.Kernel {
	e := sim.NewEngine(seed)
	chip := power5.NewChip(2, power5.NewCalibratedPerfModel())
	return sched.NewKernel(e, chip, sched.DefaultOptions())
}

func TestMetBenchStructure(t *testing.T) {
	k := newKernel(1)
	cfg := DefaultMetBench()
	cfg.Iterations = 3
	cfg.SmallWork = 10 * sim.Millisecond
	cfg.LargeWork = 40 * sim.Millisecond
	job := BuildMetBench(OnKernel(k), cfg)
	if len(job.Tasks) != 5 {
		t.Fatalf("tasks = %d, want 4 workers + master", len(job.Tasks))
	}
	end := k.RunUntilWatchedExit(10 * sim.Second)
	if end >= 10*sim.Second {
		t.Fatal("MetBench deadlocked")
	}
	// Worker roles: odd ranks carry the large load → higher utilization.
	u := func(i int) float64 { return job.Tasks[i].Utilization() }
	if u(1) <= u(0) || u(3) <= u(2) {
		t.Fatalf("load roles wrong: %v %v %v %v", u(0), u(1), u(2), u(3))
	}
	// Every worker sleeps each iteration (the master handshake).
	for i := 0; i < 4; i++ {
		if job.Tasks[i].WakeupCount < int64(cfg.Iterations) {
			t.Errorf("worker %d woke only %d times", i, job.Tasks[i].WakeupCount)
		}
	}
	// The master stays near zero utilization.
	if u(4) > 0.02 {
		t.Errorf("master utilization = %v, want ≈0", u(4))
	}
	k.Shutdown()
}

func TestMetBenchPlacementInterleaved(t *testing.T) {
	k := newKernel(1)
	cfg := DefaultMetBench()
	cfg.Iterations = 2
	cfg.SmallWork = 5 * sim.Millisecond
	cfg.LargeWork = 20 * sim.Millisecond
	job := BuildMetBench(OnKernel(k), cfg)
	k.RunUntilWatchedExit(10 * sim.Second)
	// Small+large per core: P1/P2 on core 0, P3/P4 on core 1.
	if job.Tasks[0].CPU/2 != job.Tasks[1].CPU/2 {
		t.Errorf("P1 (cpu %d) and P2 (cpu %d) not on the same core",
			job.Tasks[0].CPU, job.Tasks[1].CPU)
	}
	if job.Tasks[2].CPU/2 != job.Tasks[3].CPU/2 {
		t.Errorf("P3 (cpu %d) and P4 (cpu %d) not on the same core",
			job.Tasks[2].CPU, job.Tasks[3].CPU)
	}
	k.Shutdown()
}

func TestMetBenchStaticPriosApplied(t *testing.T) {
	k := newKernel(1)
	cfg := DefaultMetBench()
	cfg.Iterations = 2
	cfg.SmallWork = 5 * sim.Millisecond
	cfg.LargeWork = 20 * sim.Millisecond
	cfg.StaticPrios = MetBenchStaticPrios()
	job := BuildMetBench(OnKernel(k), cfg)
	k.RunUntilWatchedExit(10 * sim.Second)
	for i, want := range []power5.Priority{4, 6, 4, 6} {
		if job.Tasks[i].HWPrio != want {
			t.Errorf("P%d priority = %v, want %v", i+1, job.Tasks[i].HWPrio, want)
		}
	}
	k.Shutdown()
}

func TestMetBenchVarReversesRoles(t *testing.T) {
	k := newKernel(1)
	cfg := DefaultMetBenchVar()
	cfg.Iterations = 4
	cfg.K = 2
	cfg.SmallWork = 5 * sim.Millisecond
	cfg.LargeWork = 20 * sim.Millisecond
	job := BuildMetBenchVar(OnKernel(k), cfg)
	end := k.RunUntilWatchedExit(10 * sim.Second)
	if end >= 10*sim.Second {
		t.Fatal("MetBenchVar deadlocked")
	}
	// With one reversal in the middle, every worker carries the large
	// load for half the run: utilizations converge.
	u := make([]float64, 4)
	for i := range u {
		u[i] = job.Tasks[i].Utilization()
	}
	for i := 1; i < 4; i++ {
		d := u[i] - u[0]
		if d < -0.25 || d > 0.25 {
			t.Errorf("utils should be near-symmetric after reversal: %v", u)
		}
	}
	k.Shutdown()
}

func TestBTMZStructure(t *testing.T) {
	k := newKernel(1)
	cfg := DefaultBTMZ()
	cfg.Iterations = 3
	for i := range cfg.ZoneWork {
		cfg.ZoneWork[i] /= 10
	}
	job := BuildBTMZ(OnKernel(k), cfg)
	if len(job.Tasks) != 4 {
		t.Fatalf("tasks = %d", len(job.Tasks))
	}
	end := k.RunUntilWatchedExit(10 * sim.Second)
	if end >= 10*sim.Second {
		t.Fatal("BT-MZ deadlocked")
	}
	// Utilization ordering follows zone sizes.
	for i := 1; i < 4; i++ {
		if job.Tasks[i].Utilization() <= job.Tasks[i-1].Utilization() {
			t.Errorf("zone utilization ordering broken at %d: %v vs %v",
				i, job.Tasks[i].Utilization(), job.Tasks[i-1].Utilization())
		}
	}
	// Messages flow: 2 boundary exchanges per inner rank per phase plus
	// the reduction.
	if job.World.MsgCount() == 0 {
		t.Fatal("no messages exchanged")
	}
	// Pairing: P1 with P4, P2 with P3 (identified from the paper's
	// static-run utilizations).
	if job.Tasks[0].CPU/2 != job.Tasks[3].CPU/2 {
		t.Errorf("P1 (cpu %d) and P4 (cpu %d) must share a core",
			job.Tasks[0].CPU, job.Tasks[3].CPU)
	}
	k.Shutdown()
}

func TestBTMZHeaviestRankSleepsEachIteration(t *testing.T) {
	k := newKernel(1)
	cfg := DefaultBTMZ()
	cfg.Iterations = 5
	for i := range cfg.ZoneWork {
		cfg.ZoneWork[i] /= 10
	}
	job := BuildBTMZ(OnKernel(k), cfg)
	k.RunUntilWatchedExit(10 * sim.Second)
	// The residual reduction gives even P4 a wait phase per iteration —
	// the detector's trigger.
	if job.Tasks[3].WakeupCount < int64(cfg.Iterations) {
		t.Errorf("P4 woke %d times, want ≥%d", job.Tasks[3].WakeupCount, cfg.Iterations)
	}
	k.Shutdown()
}

// TestBTMZPhaseWeightsWrap: with more zones than phase-weight rows, the
// rows repeat: the run matches one with the rows tiled out by hand, and
// differs from the even split.
func TestBTMZPhaseWeightsWrap(t *testing.T) {
	run := func(weights [][3]float64) string {
		k := newKernel(1)
		defer k.Shutdown()
		cfg := DefaultBTMZ()
		cfg.Iterations = 3
		cfg.ZoneWork = []sim.Time{4 * sim.Millisecond, 8 * sim.Millisecond,
			12 * sim.Millisecond, 16 * sim.Millisecond, 20 * sim.Millisecond, 24 * sim.Millisecond}
		cfg.PhaseWeights = weights
		job := BuildBTMZ(OnKernel(k), cfg)
		end := k.RunUntilWatchedExit(10 * sim.Second)
		if end >= 10*sim.Second {
			t.Fatal("BT-MZ deadlocked")
		}
		out := fmt.Sprintf("end=%v", end)
		for _, task := range job.Tasks {
			out += fmt.Sprintf(" %s:%.6f/%d", task.Name, task.Utilization(), task.WakeupCount)
		}
		return out
	}
	a, b := [3]float64{0.6, 0.3, 0.1}, [3]float64{0.1, 0.3, 0.6}
	wrapped := run([][3]float64{a, b})
	if tiled := run([][3]float64{a, b, a, b, a, b}); wrapped != tiled {
		t.Errorf("wrapped phase weights differ from tiled ones:\n%s\n%s", wrapped, tiled)
	}
	if even := run(nil); wrapped == even {
		t.Error("phase weights had no effect")
	}
}

func TestSiestaStructure(t *testing.T) {
	k := newKernel(1)
	cfg := DefaultSiesta()
	cfg.SCFIterations = 2
	cfg.SubSteps = 5
	job := BuildSiesta(OnKernel(k), cfg)
	if len(job.Tasks) != 4 {
		t.Fatalf("tasks = %d", len(job.Tasks))
	}
	end := k.RunUntilWatchedExit(20 * sim.Second)
	if end >= 20*sim.Second {
		t.Fatal("SIESTA deadlocked")
	}
	// The master dominates; workers idle between requests.
	if u := job.Tasks[0].Utilization(); u < 0.9 {
		t.Errorf("master utilization = %v, want ≥0.9", u)
	}
	for i := 1; i < 4; i++ {
		if u := job.Tasks[i].Utilization(); u > 0.8 {
			t.Errorf("worker %d utilization = %v, want <0.8", i, u)
		}
	}
	// Deep pipelining: the master must sleep far less often than the
	// workers.
	if job.Tasks[0].WakeupCount > job.Tasks[1].WakeupCount/2 {
		t.Errorf("master wakes (%d) not rare vs worker (%d)",
			job.Tasks[0].WakeupCount, job.Tasks[1].WakeupCount)
	}
	k.Shutdown()
}

func TestConfigValidation(t *testing.T) {
	k := newKernel(1)
	for name, f := range map[string]func(){
		"metbench-iters":    func() { BuildMetBench(OnKernel(k), MetBenchConfig{}) },
		"metbenchvar-iters": func() { BuildMetBenchVar(OnKernel(k), MetBenchVarConfig{Iterations: 3}) },
		"btmz-ranks":        func() { BuildBTMZ(OnKernel(k), BTMZConfig{Iterations: 1, ZoneWork: []sim.Time{1}}) },
		"siesta-workers": func() {
			BuildSiesta(OnKernel(k), SiestaConfig{SCFIterations: 1, SubSteps: 1,
				WorkerWork: []sim.Time{1, 2}})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid config did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNamesAndDescribe(t *testing.T) {
	names := Names()
	if len(names) != 5 {
		t.Fatalf("Names = %v", names)
	}
	for _, n := range names {
		if Describe(n) == "" || Describe(n) == Describe("nope") {
			t.Errorf("Describe(%q) broken", n)
		}
	}
}

// TestMetBenchScalesToEightWorkers runs the microbenchmark on a 4-core
// (8-CPU) chip with 8 workers under the HPC class: the balancing story
// generalises beyond the paper's machine.
func TestMetBenchScalesToEightWorkers(t *testing.T) {
	e := sim.NewEngine(11)
	chip := power5.NewChip(4, power5.NewCalibratedPerfModel())
	k := sched.NewKernel(e, chip, sched.DefaultOptions())
	if _, err := core.Install(k, core.Config{Heuristic: core.UniformHeuristic{}}); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMetBench()
	cfg.Workers = 8
	cfg.Iterations = 6
	cfg.SmallWork = 40 * sim.Millisecond
	cfg.LargeWork = 230 * sim.Millisecond
	cfg.Policy = sched.PolicyHPC
	job := BuildMetBench(OnKernel(k), cfg)
	end := k.RunUntilWatchedExit(60 * sim.Second)
	if end >= 60*sim.Second {
		t.Fatal("8-worker MetBench deadlocked")
	}
	boosted := 0
	for i := 0; i < 8; i++ {
		if i%2 == 1 && job.Tasks[i].HWPrio == power5.PrioHigh {
			boosted++
		}
	}
	if boosted < 3 {
		t.Fatalf("only %d of 4 large workers boosted to 6", boosted)
	}
	k.Shutdown()
}

func TestJitterChangesTimingNotStructure(t *testing.T) {
	run := func(j float64) sim.Time {
		k := newKernel(5)
		cfg := DefaultMetBench()
		cfg.Iterations = 3
		cfg.SmallWork = 5 * sim.Millisecond
		cfg.LargeWork = 20 * sim.Millisecond
		cfg.JitterFrac = j
		BuildMetBench(OnKernel(k), cfg)
		end := k.RunUntilWatchedExit(10 * sim.Second)
		k.Shutdown()
		return end
	}
	plain, jittered := run(0), run(0.3)
	if plain == jittered {
		t.Error("jitter had no effect on timing")
	}
	if jittered >= 10*sim.Second {
		t.Error("jittered run deadlocked")
	}
}

func TestMatMulDAGStructure(t *testing.T) {
	k := newKernel(1)
	cfg := DefaultMatMulDAG()
	cfg.Panels = 12
	job := BuildMatMulDAG(OnKernel(k), cfg)
	if len(job.Tasks) != 4 {
		t.Fatalf("tasks = %d, want one per UpdateWork entry", len(job.Tasks))
	}
	end := k.RunUntilWatchedExit(60 * sim.Second)
	if end >= 60*sim.Second {
		t.Fatal("MatMulDAG deadlocked")
	}
	// Panels are broadcast: n-1 sends per step plus the init barrier.
	if job.World.MsgCount() == 0 {
		t.Fatal("no messages exchanged")
	}
	// Built-in imbalance: utilization follows the uneven update costs.
	if job.Tasks[3].Utilization() <= job.Tasks[0].Utilization() {
		t.Errorf("heavy rank not busier: %v vs %v",
			job.Tasks[3].Utilization(), job.Tasks[0].Utilization())
	}
	// Ownership rotates: every rank owns some panels, so every rank both
	// waits on panels (wakeups) and computes.
	for i, task := range job.Tasks {
		if task.WakeupCount == 0 {
			t.Errorf("rank %d never blocked on a panel", i)
		}
	}
	k.Shutdown()
}

func TestMatMulDAGValidation(t *testing.T) {
	k := newKernel(1)
	for name, f := range map[string]func(){
		"ranks":  func() { BuildMatMulDAG(OnKernel(k), MatMulDAGConfig{Panels: 2, UpdateWork: []sim.Time{1}}) },
		"panels": func() { BuildMatMulDAG(OnKernel(k), MatMulDAGConfig{UpdateWork: []sim.Time{1, 2}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid config did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMatMulDAGStaticPriosApplied(t *testing.T) {
	k := newKernel(1)
	cfg := DefaultMatMulDAG()
	cfg.Panels = 4
	cfg.StaticPrios = MatMulDAGStaticPrios()
	job := BuildMatMulDAG(OnKernel(k), cfg)
	k.RunUntilWatchedExit(60 * sim.Second)
	for i, want := range MatMulDAGStaticPrios() {
		if job.Tasks[i].HWPrio != want {
			t.Errorf("rank %d priority = %v, want %v", i, job.Tasks[i].HWPrio, want)
		}
	}
	k.Shutdown()
}
