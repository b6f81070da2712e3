package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"hpcsched/internal/batch"
	"hpcsched/internal/cluster"
	"hpcsched/internal/core"
	"hpcsched/internal/faults"
	"hpcsched/internal/metrics"
	"hpcsched/internal/mpi"
	"hpcsched/internal/noise"
	"hpcsched/internal/power5"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
	"hpcsched/internal/trace"
	"hpcsched/internal/workloads"
)

// clusterFaultSalt separates the per-node fault-compile seed streams: every
// node draws its own fault timeline from the run (or pinned) fault seed, so
// a cluster run's faults are reproducible and node-local.
const clusterFaultSalt = 0xfa17_c105_0000_0000

// ClusterInfo carries the per-node artifacts of a multi-node run.
type ClusterInfo struct {
	Nodes    int
	Topology string
	// Floor is the conservative lookahead floor the PDES ran with.
	Floor sim.Time
	// GVT is the final global virtual time (min over node ends).
	GVT sim.Time
	// NodeEnds[i] is node i's end instant: its last rank's exit, or the
	// horizon when Capped[i].
	NodeEnds []sim.Time
	Capped   []bool
	// RankNodes[i] is the node rank i was placed on.
	RankNodes []int
	// Recorders are the per-node trace recorders (nil entries unless
	// Config.Trace; Config.TraceSink is ignored for cluster runs — one
	// streaming sink cannot interleave the per-node timelines).
	Recorders []*trace.Recorder
	// Kernels are the per-node kernels, shut down; inspect counters only.
	Kernels []*sched.Kernel
	// Windows counts the lookahead windows the PDES executed across all
	// nodes; WindowsElided estimates the floor-cadence windows the EOT/EIT
	// lookahead collapsed. Both depend on the pacing, so they are
	// diagnostics — deliberately absent from ClusterTimeline, which is
	// pinned byte-for-byte across pacings.
	Windows       int64
	WindowsElided int64
}

// runClusterCtx is RunCtx for Config.Nodes > 1: the same machine, scheduler,
// noise, trace and fault assembly as the single-node path, replicated once
// per node, with the workload scaled across the cluster and the node engines
// advanced by the conservative PDES of internal/cluster. Determinism carries
// over: the result is byte-identical under either pacing (Config.FloorPacing).
func runClusterCtx(ctx context.Context, cfg Config) (Result, error) {
	topology := cfg.Topology
	if topology == "" {
		topology = "flat"
	}
	hpcs := make([]*core.HPCClass, cfg.Nodes)
	recs := make([]*trace.Recorder, cfg.Nodes)
	wds := make([]*watchdog, cfg.Nodes)

	cl, err := cluster.New(cluster.Config{
		Nodes:       cfg.Nodes,
		Topology:    cfg.Topology,
		Seed:        cfg.Seed,
		FloorPacing: cfg.FloorPacing,
		MPI:         mpi.DefaultOptions(),
		NewNode: func(node int, eng *sim.Engine) *sched.Kernel {
			// Each node is a full copy of the paper's machine, with its own
			// perf model unless Config.PerfModel overrides it for all.
			pm := cfg.PerfModel
			if pm == nil {
				pm = power5.NewCalibratedPerfModel()
			}
			chip := power5.NewChip(2, pm)
			k := sched.NewKernel(eng, chip, cfg.KernelOpts)
			if cfg.Mode.UsesHPCClass() {
				params := cfg.Params
				if params == (core.Params{}) {
					params = core.DefaultParams()
				}
				var h core.Heuristic
				var mech core.Mechanism = core.POWER5Mechanism{}
				switch cfg.Mode {
				case ModeUniform:
					h = core.UniformHeuristic{}
				case ModeAdaptive:
					h = core.AdaptiveHeuristic{}
				case ModeHybrid:
					h = core.HybridHeuristic{}
				case ModeHPCOnly:
					h = core.FixedHeuristic{}
					mech = core.NullMechanism{}
				}
				hpcs[node] = core.MustInstall(k, core.Config{
					Heuristic:  h,
					Mechanism:  mech,
					Discipline: cfg.Discipline,
					Params:     params,
				})
			}
			if cfg.Trace {
				rec := trace.NewRecorder()
				rec.Filter = func(t *sched.Task) bool { return t.Name[0] == 'P' }
				k.SetTracer(rec)
				recs[node] = rec
			}
			nz := noise.DefaultConfig()
			if cfg.Noise != nil {
				nz = *cfg.Noise
			}
			noise.Install(k, nz)
			return k
		},
		OnNodeStop: func(node int) error {
			if wd := wds[node]; wd != nil && wd.cause != nil {
				return wd.cause
			}
			return ctx.Err()
		},
	})
	if err != nil {
		return Result{Config: cfg}, err
	}
	defer func() {
		if v := recover(); v != nil {
			cl.Shutdown()
			panic(v)
		}
	}()

	policy := sched.PolicyNormal
	if cfg.Mode.UsesHPCClass() {
		policy = sched.PolicyHPC
	}
	var prios []power5.Priority
	if cfg.Mode == ModeStatic {
		prios = staticPrios(cfg.Workload)
	}
	params := cluster.JobParams{Policy: policy, StaticPrios: prios, Seed: cfg.Seed}

	// The workload tweak hooks apply before scaling, exactly like the
	// single-node path; policy and priorities ride JobParams instead of the
	// workload config (the cluster builders tile priorities per node).
	var job *workloads.Job
	switch cfg.Workload {
	case "metbench":
		wc := workloads.DefaultMetBench()
		if cfg.TweakMetBench != nil {
			cfg.TweakMetBench(&wc)
		}
		job = cluster.BuildMetBench(cl, wc, params)
	case "metbenchvar":
		wc := workloads.DefaultMetBenchVar()
		if cfg.TweakMetBenchVar != nil {
			cfg.TweakMetBenchVar(&wc)
		}
		job = cluster.BuildMetBenchVar(cl, wc, params)
	case "btmz":
		wc := workloads.DefaultBTMZ()
		if cfg.TweakBTMZ != nil {
			cfg.TweakBTMZ(&wc)
		}
		job = cluster.BuildBTMZ(cl, wc, params)
	case "siesta":
		wc := workloads.DefaultSiesta()
		if cfg.TweakSiesta != nil {
			cfg.TweakSiesta(&wc)
		}
		job = cluster.BuildSiesta(cl, wc, params)
	case "matmul":
		wc := workloads.DefaultMatMulDAG()
		if cfg.TweakMatMulDAG != nil {
			cfg.TweakMatMulDAG(&wc)
		}
		job = cluster.BuildMatMulDAG(cl, wc, params)
	default:
		panic(fmt.Sprintf("experiments: unknown workload %q", cfg.Workload))
	}

	if cfg.Prelude != nil {
		cfg.Prelude(cl.Kernels[0])
	}

	// Fault injection is per node: every node compiles its own timeline from
	// a seed derived off the fault seed and the node index, and installs it
	// scoped to itself (mpidelay windows drive that node's extra-delay knob,
	// composing with the topology's pair add-ons and the other nodes).
	injs := make([]*faults.Injector, cfg.Nodes)
	if !cfg.Faults.Empty() {
		fseed := cfg.Seed
		if cfg.FaultSeed != nil {
			fseed = *cfg.FaultSeed
		}
		for node, k := range cl.Kernels {
			sc := faults.Compile(cfg.Faults, batch.DeriveSeed(fseed, clusterFaultSalt+uint64(node)), k.NumCPUs())
			injs[node] = faults.InstallAt(k, job.World, node, sc)
		}
	}

	if cfg.Probe != nil {
		cfg.Probe(cl.Kernels[0], job)
	}

	// Cancellation and liveness: one watchdog per node engine, all watching
	// the same context. A triggered watchdog stops only its own engine; the
	// cluster layer turns that into a run-wide abort.
	if ctx.Done() != nil || cfg.StallTimeout > 0 {
		for node, k := range cl.Kernels {
			wd := newWatchdog(ctx, k, cfg.StallTimeout)
			wds[node] = wd
			k.Engine.SetInterrupt(interruptStride, wd.check)
		}
	}

	if err := cl.Finalize(); err != nil {
		cl.Shutdown()
		return Result{Config: cfg}, err
	}

	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = 3600 * sim.Second
	}
	end, runErr := cl.Run(horizon)

	info := &ClusterInfo{
		Nodes:     cfg.Nodes,
		Topology:  topology,
		Floor:     cl.Floor(),
		GVT:       cl.GVT(),
		NodeEnds:  make([]sim.Time, cfg.Nodes),
		Capped:    make([]bool, cfg.Nodes),
		RankNodes: make([]int, job.World.Size()),
		Recorders: recs,
		Kernels:   cl.Kernels,

		Windows:       cl.Windows(),
		WindowsElided: cl.WindowsElided(),
	}
	for i := 0; i < cfg.Nodes; i++ {
		info.NodeEnds[i] = cl.NodeEnd(i)
		info.Capped[i] = cl.Capped(i)
	}
	for i := range info.RankNodes {
		info.RankNodes[i] = cl.RankNode(i)
	}
	res := Result{
		Config:        cfg,
		ExecTime:      end,
		HPC:           hpcs[0],
		World:         job.World,
		Tasks:         job.Tasks,
		Kernel:        cl.Kernels[0],
		FaultTimeline: clusterFaultTimeline(injs),
		Cluster:       info,
	}

	if runErr != nil {
		node, reason, cause := 0, runErr.Error(), error(nil)
		var ie *cluster.InterruptError
		if errors.As(runErr, &ie) {
			node = ie.Node
			cause = ie.Cause
			if wd := wds[node]; wd != nil && wd.reason != "" {
				reason = fmt.Sprintf("node %d: %s", node, wd.reason)
				cause = wd.cause
			}
		}
		aerr := &AbortError{Reason: reason, Cause: cause, Dump: DiagnosticDump(cl.Kernels[node])}
		writeDiagDump(fmt.Sprintf("%s-node%d", cfg.Workload, node), aerr)
		cl.Shutdown()
		return res, aerr
	}

	cl.Settle()
	for node, rec := range recs {
		if rec != nil {
			rec.Finish(info.NodeEnds[node])
			rec.SortByName()
		}
	}
	res.Summaries = metrics.Summarize(job.Tasks, end)
	res.Imbalance = metrics.Imbalance(res.Summaries)
	if cfg.Trace {
		res.Recorder = recs[0]
	}
	cl.Shutdown()
	return res, nil
}

// clusterFaultTimeline merges the per-node applied-action logs, each line
// prefixed with its node, in node order. Like the single-node timeline it is
// a pure function of (spec, seed, machine, topology) — the pacing
// equivalence tests compare it byte-for-byte across pacings.
func clusterFaultTimeline(injs []*faults.Injector) string {
	var b strings.Builder
	for node, inj := range injs {
		if inj == nil {
			continue
		}
		for _, line := range inj.Timeline() {
			fmt.Fprintf(&b, "n%d %s\n", node, line)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// ClusterTimeline renders a cluster run's deterministic fingerprint: the
// run parameters, per-node ends and message counters, one line per rank
// with its placement and summary metrics, and the fault timeline. Two runs
// of the same configuration produce byte-identical timelines under either
// pacing and at any GOMAXPROCS — the goldens pin exactly this string.
func ClusterTimeline(res Result) string {
	ci := res.Cluster
	if ci == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "workload=%s mode=%s nodes=%d topology=%s seed=%d\n",
		res.Config.Workload, res.Config.Mode, ci.Nodes, ci.Topology, res.Config.Seed)
	fmt.Fprintf(&b, "floor=%v exec=%v gvt=%v imbalance=%.4f\n",
		ci.Floor, res.ExecTime, ci.GVT, res.Imbalance)
	for i := 0; i < ci.Nodes; i++ {
		count, bytes, remote := res.World.NodeMsgStats(i)
		capped := ""
		if ci.Capped[i] {
			capped = " capped"
		}
		fmt.Fprintf(&b, "n%d end=%v msgs=%d bytes=%d remote=%d%s\n",
			i, ci.NodeEnds[i], count, bytes, remote, capped)
	}
	// Every cluster builder spawns rank i as job.Tasks[i], so the summary
	// index is the rank.
	for i, s := range res.Summaries {
		fmt.Fprintf(&b, "%s n%d comp=%.2f prio=%d exec=%v sleep=%v wait=%v wakeups=%d\n",
			s.Name, ci.RankNodes[i], s.CompPct, s.HWPrio,
			s.ExecTime, s.SleepTime, s.WaitTime, s.Wakeups)
	}
	if res.FaultTimeline != "" {
		b.WriteString(res.FaultTimeline)
		b.WriteString("\n")
	}
	return b.String()
}
