package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpcsched"
	"hpcsched/internal/experiments"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
	"hpcsched/internal/trace"
	"hpcsched/internal/workloads"
)

// workload is one named benchmark workload. All three are closed loops: a
// pass runs a fixed list of units, and each worker starts its next unit only
// when its previous one has finished.
type workload struct {
	name string
	// units per pass, pool workers and cluster shards (0 = the CPU count).
	units, workers, shards int
	// prepare makes the workload's inputs from the seed and loads its
	// reference files; it runs no simulation.
	prepare func(o options) (bench, error)
}

func (w workload) shape() string {
	par := func(n int) string {
		if n == 0 {
			return strconv.Itoa(runtime.NumCPU())
		}
		return strconv.Itoa(n)
	}
	return fmt.Sprintf("closed loop, %d units/pass, workers=%s, shards=%s",
		w.units, par(w.workers), par(w.shards))
}

// bench is a workload prepared for one seed.
type bench interface {
	// warmUp runs the workload once untimed, so the first timed pass pays
	// no one-time cost, and measures what the workload measures once per
	// run (the paper checks of paper-repro).
	warmUp(ctx context.Context, rep *report) error
	// pass runs one closed-loop round of units. par overrides the pool
	// workers or cluster shards (0 = the workload's own); traced installs
	// the per-unit hooks of the traced run.
	pass(ctx context.Context, par int, traced bool) (passOut, error)
}

// unitOut is one finished (or failed) unit.
type unitOut struct {
	label  string
	start  time.Time     // host time the unit started
	wall   time.Duration // host time of the unit
	build  time.Duration // unit start → Config.Probe (traced runs only)
	events uint64        // fired events + elided ticks over every kernel
	digest string        // fingerprint of the unit's outputs
	err    string        // why the unit failed; "" when it finished
	count  counters      // layer counters (traced runs only)
}

// passOut is one pass: its units in submission order and its wall time.
type passOut struct {
	wall  time.Duration
	units []unitOut
	// tables are paper-repro's rendered Tables III–VI by workload.
	tables map[string]string
}

func (p passOut) events() uint64 {
	var n uint64
	for _, u := range p.units {
		n += u.events
	}
	return n
}

var workloadList = []workload{
	{name: "paper-repro", units: 20, workers: 1, shards: 1, prepare: preparePaperRepro},
	{name: "fault-sweep", units: 48, workers: 0, shards: 1, prepare: prepareFaultSweep},
	{name: "cluster-16", units: 1, workers: 1, shards: 0, prepare: prepareCluster16},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadList {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func orCPUs(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// hook is the per-unit instrumentation: the moment the harness starts
// building the workload (its workload-tweak callback), the moment the
// simulated clock starts (Config.Probe) and, on single-node untraced
// units of the traced run, a tracer counting scheduler state changes.
type hook struct {
	start, clock time.Time
	states       stateCounter
}

// instrument returns spec with the hook's callbacks installed. onStart is
// the build-start callback; probe adds the Config.Probe callback and the
// state counter.
func instrument(spec hpcsched.ScenarioSpec, h *hook, onStart func(), probe bool) hpcsched.ScenarioSpec {
	var cfg experiments.Config
	if spec.Advanced != nil {
		cfg = *spec.Advanced
	}
	start := func() {
		h.start = time.Now()
		if onStart != nil {
			onStart()
		}
	}
	switch spec.Workload {
	case "metbench":
		cfg.TweakMetBench = before(start, cfg.TweakMetBench)
	case "metbenchvar":
		cfg.TweakMetBenchVar = before(start, cfg.TweakMetBenchVar)
	case "btmz":
		cfg.TweakBTMZ = before(start, cfg.TweakBTMZ)
	case "siesta":
		cfg.TweakSiesta = before(start, cfg.TweakSiesta)
	}
	if probe {
		count := !spec.Trace && spec.Nodes <= 1
		cfg.Probe = func(k *sched.Kernel, _ *workloads.Job) {
			h.clock = time.Now()
			if count {
				k.SetTracer(&h.states)
			}
		}
	}
	spec.Advanced = &cfg
	return spec
}

// before returns a workload tweak that calls f, then tweak (if any).
func before[C any](f func(), tweak func(*C)) func(*C) {
	return func(c *C) {
		f()
		if tweak != nil {
			tweak(c)
		}
	}
}

// stateCounter is a sched.Tracer that only counts.
type stateCounter struct{ state, hwprio uint64 }

func (c *stateCounter) TaskState(sim.Time, *sched.Task, sched.State, int) { c.state++ }
func (c *stateCounter) TaskHWPrio(sim.Time, *sched.Task, int)             { c.hwprio++ }

// kernelsOf returns every node kernel of a finished run.
func kernelsOf(r experiments.Result) []*sched.Kernel {
	if r.Cluster != nil {
		return r.Cluster.Kernels
	}
	if r.Kernel == nil {
		return nil
	}
	return []*sched.Kernel{r.Kernel}
}

// eventsOf is the internal/perf normalisation: fired engine events plus
// the tick instants the tickless machinery elided, summed over kernels. It
// is invariant under tick elision, so ns/event stays comparable with the
// repository's BENCH trajectory.
func eventsOf(r experiments.Result) uint64 {
	var n uint64
	for _, k := range kernelsOf(r) {
		n += k.Engine.Stats().Fired + uint64(k.TicksElided())
	}
	return n
}

// corruptDigest, when positive, makes the corruptDigest-th digest of the
// process wrong: the self-test sets it to prove that a wrong output trips
// the correctness gate. digestOf runs on the main goroutine only.
var corruptDigest, digests int

// digestOf fingerprints everything a unit outputs: its exec time and
// per-task summaries, its fault timeline, the cluster timeline of a
// multi-node run and the rendered figures of a traced run.
func digestOf(r experiments.Result, figures []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%v|%d|%v\n", r.Config.Workload, r.Config.Mode, r.ExecTime, r.Summaries)
	io.WriteString(h, r.FaultTimeline)
	if r.Cluster != nil {
		io.WriteString(h, experiments.ClusterTimeline(r))
	}
	for _, f := range figures {
		io.WriteString(h, f)
	}
	if digests++; digests == corruptDigest {
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// finish fills a unit's outputs from its result.
func finish(u *unitOut, r experiments.Result, h *hook, figures []string, traced bool) {
	u.events = eventsOf(r)
	u.digest = digestOf(r, figures)
	if traced {
		if !h.clock.IsZero() && !h.start.IsZero() {
			u.build = h.clock.Sub(h.start)
		}
		u.count = countersOf(r, h)
	}
}

// ---------------------------------------------------------------------------
// paper-repro: Tables III–VI and Figures 5–6, serially on one goroutine.
// ---------------------------------------------------------------------------

// goldenFiles are the repository's byte-identity references for Tables
// III–VI at goldenSeed; they are read at run time so a change that updates
// them stays consistent with this benchmark.
var goldenFiles = map[string]string{
	"metbench":    "golden_table3.txt",
	"metbenchvar": "golden_table4.txt",
	"btmz":        "golden_table5.txt",
	"siesta":      "golden_table6.txt",
}

var tableWorkloads = []string{"metbench", "metbenchvar", "btmz", "siesta"}

type paperRepro struct {
	seed    uint64
	units   []hpcsched.ScenarioSpec
	goldens map[string]string
}

func preparePaperRepro(o options) (bench, error) {
	p := &paperRepro{seed: o.seed}
	for _, wl := range tableWorkloads {
		for _, m := range hpcsched.TableModes(wl) {
			p.units = append(p.units, hpcsched.ScenarioSpec{
				Name: wl + "/" + m.String(), Workload: wl, Mode: m, Seed: o.seed,
				Exec: hpcsched.ExecOptions{Workers: 1},
			})
		}
	}
	figures := []struct {
		wl string
		m  hpcsched.Mode
	}{
		{"btmz", hpcsched.ModeBaseline}, {"btmz", hpcsched.ModeUniform},
		{"siesta", hpcsched.ModeBaseline}, {"siesta", hpcsched.ModeUniform}, {"siesta", hpcsched.ModeAdaptive},
	}
	for _, f := range figures {
		p.units = append(p.units, hpcsched.ScenarioSpec{
			Name: "figure/" + f.wl + "/" + f.m.String(), Workload: f.wl, Mode: f.m, Seed: o.seed,
			Trace: true, Exec: hpcsched.ExecOptions{Workers: 1},
		})
	}
	if o.seed == goldenSeed {
		p.goldens = map[string]string{}
		for wl, file := range goldenFiles {
			b, err := os.ReadFile(filepath.Join(o.root, "internal", "experiments", "testdata", file))
			if err != nil {
				return nil, fmt.Errorf("paper-repro: reading golden: %w", err)
			}
			p.goldens[wl] = string(b)
		}
	}
	return p, nil
}

// warmUp runs the paper validation: every table once, compared with the
// paper's published values. It doubles as the warm-up of the table path.
func (p *paperRepro) warmUp(_ context.Context, rep *report) error {
	checks := experiments.Validate(p.seed)
	failed, errSum := 0, 0.0
	for _, c := range checks {
		if !c.Pass {
			failed++
		}
		if c.Tolerance > 0 {
			d := c.Measured - c.Paper
			if d < 0 {
				d = -d
			}
			errSum += d / c.Tolerance
		}
	}
	rep.metrics["paper_checks_failed"] = float64(failed)
	rep.metrics["paper_err_mean"] = errSum / float64(len(checks))
	rep.metrics["paper_checks"] = float64(len(checks))
	return nil
}

func (p *paperRepro) pass(ctx context.Context, _ int, traced bool) (passOut, error) {
	out := passOut{tables: map[string]string{}}
	rows := map[string][]experiments.Result{}
	t0 := time.Now()
	for _, spec := range p.units {
		var h hook
		if traced {
			spec = instrument(spec, &h, nil, true)
		}
		start := time.Now()
		sr, err := hpcsched.Run(ctx, spec)
		if err != nil {
			return out, fmt.Errorf("paper-repro %s: %w", spec.Name, err)
		}
		r := sr.Results[0]
		var figures []string
		if spec.Trace {
			opt := trace.RenderOptions{Width: 100}
			figures = []string{r.Recorder.Render(opt), r.Recorder.RenderByCPU(opt)}
		}
		u := unitOut{label: spec.Name, start: start, wall: time.Since(start)}
		finish(&u, r, &h, figures, traced)
		if !spec.Trace {
			rows[spec.Workload] = append(rows[spec.Workload], r)
		}
		out.units = append(out.units, u)
	}
	out.wall = time.Since(t0)
	for wl, rs := range rows {
		out.tables[wl] = hpcsched.FormatTable(wl, rs)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// fault-sweep: a perturbation grid on the hardened pool.
// ---------------------------------------------------------------------------

// faultSpec perturbs every replica the same way: two speed-degradation
// windows, one noise storm and two windows of extra MPI latency, all in the
// first 30 simulated seconds.
const faultSpec = "slow:n=2,factor=0.5,dur=2s,by=30s;storm:n=1,by=30s;mpidelay:n=2,extra=1ms,by=30s"

// faultSeed pins the fault timeline.
const faultSeed = 2008

type faultSweep struct {
	specs []hpcsched.ScenarioSpec
}

func prepareFaultSweep(o options) (bench, error) {
	fs, err := hpcsched.ParseFaultSpec(faultSpec)
	if err != nil {
		return nil, fmt.Errorf("fault-sweep: %w", err)
	}
	// One fault timeline for the whole grid, pinned independently of the
	// seed, so every replica and mode — and every seed — meets the same
	// perturbation; the seed varies only the replicas' own randomness.
	fseed := uint64(faultSeed)
	seeds := hpcsched.ReplicaSeeds(o.seed, 8)
	f := &faultSweep{}
	for _, g := range []struct {
		wl string
		n  int
	}{{"metbench", 8}, {"btmz", 4}} {
		for _, s := range seeds[:g.n] {
			for _, m := range hpcsched.TableModes(g.wl) {
				f.specs = append(f.specs, hpcsched.ScenarioSpec{
					Name: fmt.Sprintf("%s/%d/%v", g.wl, s, m), Workload: g.wl, Mode: m, Seed: s,
					Faults: fs, FaultSeed: &fseed,
				})
			}
		}
	}
	return f, nil
}

func (f *faultSweep) warmUp(ctx context.Context, _ *report) error {
	_, err := f.pass(ctx, 0, false)
	return err
}

// pass runs the grid as one Sweep. Per-replica host time runs from the
// replica's build-start callback (on the attempt goroutine) to the pool's
// Progress callback (on the worker goroutine that ran it); the two are
// matched through the worker goroutine's id, which the attempt goroutine's
// stack names as its creator.
func (f *faultSweep) pass(ctx context.Context, par int, traced bool) (passOut, error) {
	n := len(f.specs)
	hooks := make([]hook, n)
	ends := make([]time.Time, n)
	var mu sync.Mutex
	running := map[uint64]int{} // worker goroutine → replica index
	specs := make([]hpcsched.ScenarioSpec, n)
	for i := range f.specs {
		i := i
		specs[i] = instrument(f.specs[i], &hooks[i], func() {
			self, parent := goroutineIDs()
			mu.Lock()
			running[self] = i
			if parent != 0 {
				running[parent] = i
			}
			mu.Unlock()
		}, traced)
	}
	progress := func(int, int) {
		now := time.Now()
		self, _ := goroutineIDs()
		mu.Lock()
		if i, ok := running[self]; ok {
			ends[i] = now
			delete(running, self)
		}
		mu.Unlock()
	}
	workers := orCPUs(par)
	t0 := time.Now()
	srs, err := hpcsched.Sweep(ctx, specs, hpcsched.ExecOptions{Workers: workers, Harden: true, Progress: progress})
	out := passOut{wall: time.Since(t0)}
	if err != nil {
		return out, fmt.Errorf("fault-sweep: %w", err)
	}
	for i, sr := range srs {
		u := unitOut{label: f.specs[i].Name, start: hooks[i].start}
		if !ends[i].IsZero() && !hooks[i].start.IsZero() {
			u.wall = ends[i].Sub(hooks[i].start)
		}
		switch {
		case len(sr.Failed) > 0:
			u.err = sr.Failed[0].Error()
		case len(sr.OK) == 0 || !sr.OK[0]:
			u.err = "replica did not finish"
		default:
			finish(&u, sr.Results[0], &hooks[i], nil, traced)
		}
		out.units = append(out.units, u)
	}
	return out, nil
}

// goroutineIDs returns the calling goroutine's id and the id of the
// goroutine that created it, read from the runtime's stack dump.
func goroutineIDs() (self, parent uint64) {
	var buf [4096]byte
	st := buf[:runtime.Stack(buf[:], false)]
	sc := bufio.NewScanner(bytes.NewReader(st))
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if first {
			first = false
			self = idAfter(line, []byte("goroutine "))
			continue
		}
		if bytes.HasPrefix(line, []byte("created by ")) {
			parent = idAfter(line, []byte(" in goroutine "))
		}
	}
	return self, parent
}

func idAfter(line, marker []byte) uint64 {
	i := bytes.Index(line, marker)
	if i < 0 {
		return 0
	}
	rest := line[i+len(marker):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	id, _ := strconv.ParseUint(string(rest[:j]), 10, 64)
	return id
}

// ---------------------------------------------------------------------------
// cluster-16: one 16-node BT-MZ run per unit on the sharded PDES.
// ---------------------------------------------------------------------------

type cluster16 struct {
	spec hpcsched.ScenarioSpec
}

// clusterIterations matches internal/perf's cluster-btmz-16node scenario.
const clusterIterations = 30

func prepareCluster16(o options) (bench, error) {
	return &cluster16{spec: hpcsched.ScenarioSpec{
		Name: "btmz-16node/Uniform", Workload: "btmz", Mode: hpcsched.ModeUniform, Seed: o.seed,
		Nodes: 16, Exec: hpcsched.ExecOptions{Workers: 1},
		Advanced: &experiments.Config{
			TweakBTMZ: func(c *workloads.BTMZConfig) { c.Iterations = clusterIterations },
		},
	}}, nil
}

func (c *cluster16) warmUp(ctx context.Context, _ *report) error {
	_, err := c.pass(ctx, 0, false)
	return err
}

func (c *cluster16) pass(ctx context.Context, par int, traced bool) (passOut, error) {
	spec := c.spec
	spec.Shards = orCPUs(par)
	var h hook
	if traced {
		spec = instrument(spec, &h, nil, true)
	}
	start := time.Now()
	sr, err := hpcsched.Run(ctx, spec)
	u := unitOut{label: spec.Name, start: start, wall: time.Since(start)}
	if err != nil {
		return passOut{}, fmt.Errorf("cluster-16: %w", err)
	}
	finish(&u, sr.Results[0], &h, nil, traced)
	return passOut{wall: u.wall, units: []unitOut{u}}, nil
}

// ---------------------------------------------------------------------------
// Correctness gate shared by the timed and traced runs.
// ---------------------------------------------------------------------------

// gate compares every pass with the first: a unit whose digest differs from
// its first-pass digest, or that failed outright, counts as failed. At the
// golden seed, paper-repro's tables must also equal the goldens.
type gate struct {
	goldens map[string]string
	ref     []string
}

func newGate(b bench) *gate {
	g := &gate{}
	if p, ok := b.(*paperRepro); ok {
		g.goldens = p.goldens
	}
	return g
}

// check records the pass's failures in rep and returns how many units
// failed.
func (g *gate) check(p passOut, rep *report) int {
	bad := map[int]bool{}
	for i, u := range p.units {
		if u.err != "" {
			rep.fail("unit %s: %s", u.label, u.err)
			bad[i] = true
		}
	}
	if g.ref == nil {
		for _, u := range p.units {
			g.ref = append(g.ref, u.digest)
		}
	} else {
		for i, u := range p.units {
			if !bad[i] && (i >= len(g.ref) || u.digest != g.ref[i]) {
				rep.fail("unit %s: output digest %s differs from the first pass", u.label, u.digest)
				bad[i] = true
			}
		}
	}
	var wls []string
	for wl := range g.goldens {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	for _, wl := range wls {
		if p.tables[wl] == g.goldens[wl] {
			continue
		}
		rep.fail("table of %s differs from %s", wl, goldenFiles[wl])
		for i, u := range p.units {
			if strings.HasPrefix(u.label, wl+"/") {
				bad[i] = true
			}
		}
	}
	return len(bad)
}
