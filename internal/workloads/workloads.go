// Package workloads builds the paper's four benchmark applications as
// simulated MPI jobs: MetBench, MetBenchVar, a BT-MZ analogue and a SIESTA
// analogue. The work parameters are calibrated so that the baseline runs
// reproduce the per-process utilization signatures and execution times of
// Tables III-VI (see EXPERIMENTS.md for the derivation).
package workloads

import (
	"fmt"

	"hpcsched/internal/mpi"
	"hpcsched/internal/power5"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// Job is a constructed workload: the MPI world plus its rank tasks, in rank
// order.
type Job struct {
	Name  string
	World *mpi.World
	Tasks []*sched.Task
}

// Placement is where a job's ranks run: one kernel (OnKernel) or the nodes
// of a cluster (cluster.Cluster.Placement). Every builder multiplies its
// per-machine rank count by Nodes and places each rank through Spawn, so a
// workload body is written once for single-node and cluster runs.
type Placement interface {
	// Nodes is the number of machines the job spans.
	Nodes() int
	// NewWorld creates the job's MPI world of size ranks.
	NewWorld(size int) *mpi.World
	// Spawn launches rank i of the world on the given node.
	Spawn(i, node int, spec sched.TaskSpec, body func(*mpi.Rank)) *sched.Task
	// Streams returns the jitter RNG of ranks 0..n-1. Builders call it
	// after NewWorld and before the first Spawn. shared asks for one
	// stream drawn by every rank; a placement may still give each rank
	// its own.
	Streams(n int, shared bool) []*sim.RNG
}

// OnKernel places a whole job on one kernel. Ranks spawn through
// World.Spawn, so the kernel watches them, and Streams splits the kernel's
// engine RNG once when shared and once per rank otherwise.
func OnKernel(k *sched.Kernel) Placement { return &onKernel{k: k} }

type onKernel struct {
	k *sched.Kernel
	w *mpi.World
}

func (p *onKernel) Nodes() int { return 1 }

func (p *onKernel) NewWorld(size int) *mpi.World {
	p.w = mpi.NewWorld(p.k, size, mpi.DefaultOptions())
	return p.w
}

func (p *onKernel) Spawn(i, _ int, spec sched.TaskSpec, body func(*mpi.Rank)) *sched.Task {
	return p.w.Spawn(i, spec, body)
}

func (p *onKernel) Streams(n int, shared bool) []*sim.RNG {
	rngs := make([]*sim.RNG, n)
	for i := range rngs {
		if shared && i > 0 {
			rngs[i] = rngs[0]
		} else {
			rngs[i] = p.k.Engine.RNG().Split()
		}
	}
	return rngs
}

// rankSpec is rank i's task spec: the job's policy plus, when the config
// carries a hand-tuned assignment, its priority. The assignment repeats
// every len(prios) ranks, so one machine's pattern tiles across nodes.
func rankSpec(policy sched.Policy, prios []power5.Priority, i int) sched.TaskSpec {
	spec := sched.TaskSpec{Policy: policy}
	if len(prios) > 0 {
		spec.HWPrio = prios[i%len(prios)]
	}
	return spec
}

// ---------------------------------------------------------------------------
// MetBench
// ---------------------------------------------------------------------------

// MetBenchConfig parameterises the BSC microbenchmark: workers alternating
// small and large loads (one of each per SMT core), kept in strict
// synchronisation by a master each iteration. The defaults reproduce
// Table III's baseline (P1/P3 ≈ 25% comp, 81.78 s total on the simulated
// machine).
type MetBenchConfig struct {
	Iterations int
	// Workers is the worker count per machine (default 4 — the paper's
	// machine; use more on larger chips).
	Workers     int
	SmallWork   sim.Time
	LargeWork   sim.Time
	Policy      sched.Policy
	StaticPrios []power5.Priority // per worker, repeating; nil for default
	JitterFrac  float64           // per-iteration work jitter (default 0)
}

// DefaultMetBench returns the Table III calibration.
func DefaultMetBench() MetBenchConfig {
	return MetBenchConfig{
		Iterations: 30,
		SmallWork:  400 * sim.Millisecond,
		LargeWork:  2294 * sim.Millisecond,
		Policy:     sched.PolicyNormal,
	}
}

// MetBenchStaticPrios is the paper's hand-tuned assignment for MetBench:
// the large-load workers (P2, P4) run at priority 6.
func MetBenchStaticPrios() []power5.Priority {
	return []power5.Priority{power5.PrioMedium, power5.PrioHigh,
		power5.PrioMedium, power5.PrioHigh}
}

// BuildMetBench constructs the job. As in the real framework, a master
// process (the last rank, shown as "M") keeps the workers in strict
// synchronisation: each iteration every worker reports completion and
// waits for the master's go-ahead. The master is what gives even the
// slowest worker a wait phase each iteration — the iteration boundary the
// Load Imbalance Detector feeds on. Each node runs cfg.Workers workers
// (block placement); the master runs on node 0, so on a cluster the
// iteration barrier spans the interconnect.
func BuildMetBench(p Placement, cfg MetBenchConfig) *Job {
	if cfg.Iterations <= 0 {
		panic("workloads: MetBench needs iterations")
	}
	perNode := cfg.Workers
	if perNode == 0 {
		perNode = 4
	}
	if perNode < 2 {
		panic("workloads: MetBench needs at least 2 workers")
	}
	workers := perNode * p.Nodes()
	w := p.NewWorld(workers + 1)
	job := &Job{Name: "metbench", World: w}
	rngs := p.Streams(workers, true)
	master := workers
	for i := 0; i < workers; i++ {
		work := cfg.SmallWork
		if i%2 == 1 {
			work = cfg.LargeWork
		}
		rng := rngs[i]
		t := p.Spawn(i, i/perNode, rankSpec(cfg.Policy, cfg.StaticPrios, i), func(r *mpi.Rank) {
			// Initialization: configuration exchange with the master.
			r.Recv(master, 0)
			for it := 0; it < cfg.Iterations; it++ {
				d := work
				if cfg.JitterFrac > 0 {
					d = rng.Jitter(work, cfg.JitterFrac)
				}
				r.Compute(d)
				r.Send(master, 1+it, 64) // report completion
				r.Recv(master, 1+it)     // wait for the go-ahead
			}
		})
		job.Tasks = append(job.Tasks, t)
	}
	job.Tasks = append(job.Tasks, spawnMaster(p, master, workers, cfg.Iterations, cfg.Policy))
	return job
}

// spawnMaster places the MetBench master on node 0: it hands every worker
// its configuration, then each iteration collects all completion reports
// before releasing the workers together.
func spawnMaster(p Placement, master, workers, iterations int, policy sched.Policy) *sched.Task {
	return p.Spawn(master, 0, sched.TaskSpec{Name: "M", Policy: policy}, func(r *mpi.Rank) {
		for q := 0; q < workers; q++ {
			r.Send(q, 0, 1024)
		}
		for it := 0; it < iterations; it++ {
			for q := 0; q < workers; q++ {
				r.Recv(q, 1+it)
			}
			for q := 0; q < workers; q++ {
				r.Send(q, 1+it, 64)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// MetBenchVar
// ---------------------------------------------------------------------------

// MetBenchVarConfig is MetBench with the load assignment reversed every K
// iterations: P1/P3 start small and become large in the second period,
// making the application's behaviour dynamic (§V-B).
type MetBenchVarConfig struct {
	Iterations  int // total (the paper: 45 = 3 periods of k=15)
	K           int // period length
	SmallWork   sim.Time
	LargeWork   sim.Time
	Policy      sched.Policy
	StaticPrios []power5.Priority // per worker, repeating; nil for default
}

// DefaultMetBenchVar returns the Table IV calibration (k=15, 45
// iterations, baseline ≈ 368 s).
func DefaultMetBenchVar() MetBenchVarConfig {
	return MetBenchVarConfig{
		Iterations: 45,
		K:          15,
		SmallWork:  1200 * sim.Millisecond,
		LargeWork:  6886 * sim.Millisecond,
		Policy:     sched.PolicyNormal,
	}
}

// BuildMetBenchVar constructs the job: the same master/worker structure
// and placement as MetBench with four workers per node, the small/large
// role alternating by rank parity and reversing every K iterations.
func BuildMetBenchVar(p Placement, cfg MetBenchVarConfig) *Job {
	if cfg.Iterations <= 0 || cfg.K <= 0 {
		panic("workloads: MetBenchVar needs iterations and K")
	}
	const perNode = 4
	workers := perNode * p.Nodes()
	w := p.NewWorld(workers + 1)
	job := &Job{Name: "metbenchvar", World: w}
	master := workers
	for i := 0; i < workers; i++ {
		t := p.Spawn(i, i/perNode, rankSpec(cfg.Policy, cfg.StaticPrios, i), func(r *mpi.Rank) {
			r.Recv(master, 0)
			for it := 0; it < cfg.Iterations; it++ {
				period := it / cfg.K
				smallRole := i%2 == 0
				if period%2 == 1 {
					smallRole = !smallRole // reversed period
				}
				if smallRole {
					r.Compute(cfg.SmallWork)
				} else {
					r.Compute(cfg.LargeWork)
				}
				r.Send(master, 1+it, 64)
				r.Recv(master, 1+it)
			}
		})
		job.Tasks = append(job.Tasks, t)
	}
	job.Tasks = append(job.Tasks, spawnMaster(p, master, workers, cfg.Iterations, cfg.Policy))
	return job
}

// ---------------------------------------------------------------------------
// BT-MZ analogue
// ---------------------------------------------------------------------------

// BTMZConfig parameterises the NAS BT Multi-Zone analogue: zones of uneven
// size are distributed over the ranks, giving each rank a different
// per-iteration load. Each iteration runs the three directional sweeps
// (x, y, z); after each sweep the rank exchanges boundary data with its
// chain neighbours via isend/irecv/waitall — no global barrier, exactly
// the §V-C communication structure.
type BTMZConfig struct {
	Iterations int
	// ZoneWork is the per-rank compute per iteration; its length sets the
	// rank count per machine.
	ZoneWork []sim.Time
	// PhaseWeights[i] splits rank i's iteration across the three sweeps
	// (repeating; nil splits evenly). The per-rank skew is what
	// occasionally makes even the heaviest rank wait for a neighbour's
	// boundary data, giving the detector its iteration boundaries.
	PhaseWeights [][3]float64
	BoundaryMsg  int64 // bytes exchanged with each neighbour per sweep
	Policy       sched.Policy
	StaticPrios  []power5.Priority // per rank, repeating; nil for default
	JitterFrac   float64
}

// DefaultBTMZ returns the Table V calibration (class A, 200 iterations;
// baseline utils ≈ 17.6 / 29.9 / 66.1 / 99.9, exec ≈ 95 s). The paper's
// per-process utilization shifts under the static priorities (P1's
// utilization quadruples when P4 runs at 6) pin the rank placement of
// that run: P1 and P4 shared one core, P2 and P3 the other; BuildBTMZ
// spawns in that order.
func DefaultBTMZ() BTMZConfig {
	return BTMZConfig{
		Iterations: 200,
		ZoneWork: []sim.Time{
			49 * sim.Millisecond,
			85 * sim.Millisecond,
			235 * sim.Millisecond,
			411 * sim.Millisecond,
		},
		PhaseWeights: [][3]float64{
			{0.33, 0.34, 0.33},
			{0.34, 0.33, 0.33},
			{0.42, 0.33, 0.25},
			{0.35, 0.33, 0.32},
		},
		BoundaryMsg: 200 << 10,
		JitterFrac:  0.05,
		Policy:      sched.PolicyNormal,
	}
}

// BTMZStaticPrios is the paper's hand-tuned Table V assignment:
// P1=4, P2=4, P3=5, P4=6.
func BTMZStaticPrios() []power5.Priority {
	return []power5.Priority{power5.PrioMedium, power5.PrioMedium,
		power5.PrioMediumHigh, power5.PrioHigh}
}

// BuildBTMZ constructs the job: len(cfg.ZoneWork) zones per node along one
// neighbour-exchange chain (block placement, so exactly one boundary pair
// per node border crosses the interconnect). The per-iteration residual
// reduction is rooted at rank 0.
func BuildBTMZ(p Placement, cfg BTMZConfig) *Job {
	perNode := len(cfg.ZoneWork)
	if perNode < 2 {
		panic("workloads: BT-MZ needs at least 2 ranks")
	}
	nodes := p.Nodes()
	n := perNode * nodes
	w := p.NewWorld(n)
	job := &Job{Name: "btmz", World: w}
	rngs := p.Streams(n, true)
	// Spawn (and therefore place) each node's ranks so P1/P4 share core 0
	// and P2/P3 share core 1, the layout the paper's static-priority
	// utilizations identify. For other rank counts, fall back to rank
	// order.
	order := make([]int, 0, n)
	for g := 0; g < n; g += perNode {
		if perNode == 4 {
			order = append(order, g, g+3, g+1, g+2)
		} else {
			for o := 0; o < perNode; o++ {
				order = append(order, g+o)
			}
		}
	}
	tasks := make([]*sched.Task, n)
	for _, i := range order {
		zone := cfg.ZoneWork[i%perNode]
		weights := [3]float64{0.33, 0.34, 0.33}
		if cfg.PhaseWeights != nil {
			weights = cfg.PhaseWeights[i%len(cfg.PhaseWeights)]
		}
		rng := rngs[i]
		t := p.Spawn(i, i/perNode, rankSpec(cfg.Policy, cfg.StaticPrios, i), func(r *mpi.Rank) {
			r.Barrier() // initialization sync only
			// Boundary exchange is pipelined one sweep deep, as in the
			// real code: the data sent after sweep k is consumed by the
			// neighbour's sweep k+1, so a slow rank's messages have one
			// sweep of slack before they gate anyone. The two request
			// buffers alternate roles (in-flight vs being-filled), as the
			// real application reuses its request arrays.
			pending := make([]mpi.Request, 0, 2)
			recvs := make([]mpi.Request, 0, 2)
			for it := 0; it < cfg.Iterations; it++ {
				for phase := 0; phase < 3; phase++ {
					d := sim.Time(float64(zone) * weights[phase])
					if cfg.JitterFrac > 0 {
						d = rng.Jitter(d, cfg.JitterFrac)
					}
					r.Compute(d)
					tag := it*3 + phase
					recvs = recvs[:0]
					if i > 0 {
						recvs = append(recvs, r.Irecv(i-1, tag))
						r.Isend(i-1, tag, cfg.BoundaryMsg)
					}
					if i < n-1 {
						recvs = append(recvs, r.Irecv(i+1, tag))
						r.Isend(i+1, tag, cfg.BoundaryMsg)
					}
					r.Waitall(pending)
					pending, recvs = recvs, pending
				}
				// Per-iteration residual reduction rooted at rank 0: the
				// heaviest rank's partial arrives last, so even the
				// straggler sleeps for the (brief) result broadcast —
				// the iteration boundary the detector feeds on.
				rtag := 1 << 20
				if i == 0 {
					for q := 1; q < n; q++ {
						r.Recv(q, rtag+it)
					}
					r.Compute(10 * sim.Microsecond)
					for q := 1; q < n; q++ {
						r.Send(q, rtag+it, 64)
					}
				} else {
					r.Send(0, rtag+it, 64)
					r.Recv(0, rtag+it)
				}
			}
			r.Waitall(pending)
		})
		tasks[i] = t
	}
	job.Tasks = tasks
	return job
}

// ---------------------------------------------------------------------------
// SIESTA analogue
// ---------------------------------------------------------------------------

// SiestaConfig parameterises the SIESTA analogue: an irregular ab-initio
// style run where P1 drives self-consistency iterations almost without
// blocking (util ≈ 99%), farming many small sub-steps to the three workers
// over a deeply pipelined request/response pattern; the workers idle
// between sub-steps (utils ≈ 53 / 28 / 20). Iterations are jittered so no
// iteration is representative of the next, as the paper observes.
type SiestaConfig struct {
	SCFIterations int
	SubSteps      int
	MasterWork    sim.Time   // per sub-step
	WorkerWork    []sim.Time // per sub-step for each machine's 3 workers
	JitterFrac    float64
	RequestBytes  int64
	ResponseBytes int64
	Policy        sched.Policy
	StaticPrios   []power5.Priority // per rank, repeating; nil for default
}

// DefaultSiesta returns the Table VI calibration (benzene-like: utils
// ≈ 98.9 / 52.8 / 28.4 / 20.0, baseline ≈ 81.5 s).
func DefaultSiesta() SiestaConfig {
	return SiestaConfig{
		SCFIterations: 45,
		SubSteps:      35,
		MasterWork:    41300 * sim.Microsecond,
		WorkerWork: []sim.Time{
			18200 * sim.Microsecond,
			9100 * sim.Microsecond,
			6000 * sim.Microsecond,
		},
		JitterFrac:    0.35,
		RequestBytes:  8 << 10,
		ResponseBytes: 32 << 10,
		Policy:        sched.PolicyNormal,
	}
}

// BuildSiesta constructs the job: the master (rank 0) on node 0 farms
// sub-steps to three workers per node, placed in blocks beside it.
func BuildSiesta(p Placement, cfg SiestaConfig) *Job {
	if len(cfg.WorkerWork) != 3 {
		panic("workloads: SIESTA analogue uses exactly 3 workers per machine")
	}
	perNode := len(cfg.WorkerWork)
	nw := perNode * p.Nodes()
	w := p.NewWorld(nw + 1)
	job := &Job{Name: "siesta", World: w}
	total := cfg.SCFIterations * cfg.SubSteps
	// Per-rank RNGs so jitter streams are independent of scheduling.
	rngs := p.Streams(nw+1, false)
	// Master (P1): computes sub-steps back to back, sending one request
	// per worker per sub-step and collecting the responses of sub-step
	// j-2 — deep enough pipelining that the master almost never blocks.
	t := p.Spawn(0, 0, rankSpec(cfg.Policy, cfg.StaticPrios, 0), func(r *mpi.Rank) {
		r.Barrier()
		const depth = 2
		for j := 0; j < total; j++ {
			r.Compute(rngs[0].Jitter(cfg.MasterWork, cfg.JitterFrac))
			for q := 1; q <= nw; q++ {
				r.Send(q, j, cfg.RequestBytes)
			}
			if j >= depth {
				var reqs []mpi.Request
				for q := 1; q <= nw; q++ {
					reqs = append(reqs, r.Irecv(q, j-depth))
				}
				r.Waitall(reqs)
			}
		}
		// Drain the tail of the pipeline.
		for j := total - 2; j < total; j++ {
			if j < 0 {
				continue
			}
			var reqs []mpi.Request
			for q := 1; q <= nw; q++ {
				reqs = append(reqs, r.Irecv(q, j))
			}
			r.Waitall(reqs)
		}
	})
	job.Tasks = append(job.Tasks, t)
	for q := 1; q <= nw; q++ {
		work := cfg.WorkerWork[(q-1)%perNode]
		t := p.Spawn(q, (q-1)/perNode, rankSpec(cfg.Policy, cfg.StaticPrios, q), func(r *mpi.Rank) {
			r.Barrier()
			for j := 0; j < total; j++ {
				r.Recv(0, j)
				r.Compute(rngs[q].Jitter(work, cfg.JitterFrac))
				r.Send(0, j, cfg.ResponseBytes)
			}
		})
		job.Tasks = append(job.Tasks, t)
	}
	return job
}

// Names lists the available workloads.
func Names() []string {
	return []string{"metbench", "metbenchvar", "btmz", "siesta", "matmul"}
}

// Describe returns a one-line description of a workload.
func Describe(name string) string {
	switch name {
	case "metbench":
		return "BSC microbenchmark: 2 small + 2 large loads, global barrier (Table III)"
	case "metbenchvar":
		return "MetBench with the load assignment reversed every k iterations (Table IV)"
	case "btmz":
		return "NAS BT Multi-Zone analogue: uneven zones, neighbour exchange (Table V)"
	case "siesta":
		return "SIESTA analogue: irregular master/worker ab-initio run (Table VI)"
	case "matmul":
		return "heterogeneous matrix-multiply task DAG: rotating panel owner, dependency-gated updates"
	default:
		return fmt.Sprintf("unknown workload %q", name)
	}
}
