package cluster

import (
	"fmt"

	"hpcsched/internal/batch"
	"hpcsched/internal/mpi"
	"hpcsched/internal/power5"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
	"hpcsched/internal/workloads"
)

// Cluster-scaled builders for the paper's workloads: the same per-rank
// bodies as internal/workloads, with the rank count multiplied across
// nodes and every rank drawing jitter from its own derived RNG stream.
// The per-rank streams make the draw order a function of the rank alone,
// so the workload is identical wherever the lookahead windows fall and
// however the node engines' steps interleave.

// clusterRankSalt separates the per-rank workload RNG streams.
const clusterRankSalt = 0x2a8c_0000_0000_0000

func rankRNG(seed uint64, rank int) *sim.RNG {
	return sim.NewRNG(batch.DeriveSeed(seed, clusterRankSalt+uint64(rank)))
}

// tilePrios repeats a per-node static-priority pattern across n ranks
// (nil stays nil: no hand-tuned assignment).
func tilePrios(base []power5.Priority, n int) []power5.Priority {
	if base == nil {
		return nil
	}
	out := make([]power5.Priority, n)
	for i := range out {
		out[i] = base[i%len(base)]
	}
	return out
}

func prioOf(prios []power5.Priority, i int) power5.Priority {
	if prios == nil {
		return 0
	}
	return prios[i]
}

func rankSpec(policy sched.Policy, prio power5.Priority) sched.TaskSpec {
	spec := sched.TaskSpec{Policy: policy}
	if prio != 0 {
		spec.HWPrio = prio
	}
	return spec
}

// JobParams carries the scheduling configuration shared by all builders.
type JobParams struct {
	Policy      sched.Policy
	StaticPrios []power5.Priority // per-node pattern, tiled across ranks
	Seed        uint64            // per-rank RNG derivation root
}

// BuildJob scales the named workload across the cluster's nodes.
func BuildJob(c *Cluster, workload string, p JobParams) (*workloads.Job, error) {
	switch workload {
	case "metbench":
		return BuildMetBench(c, workloads.DefaultMetBench(), p), nil
	case "metbenchvar":
		return BuildMetBenchVar(c, workloads.DefaultMetBenchVar(), p), nil
	case "btmz":
		return BuildBTMZ(c, workloads.DefaultBTMZ(), p), nil
	case "siesta":
		return BuildSiesta(c, workloads.DefaultSiesta(), p), nil
	case "matmul":
		return BuildMatMulDAG(c, workloads.DefaultMatMulDAG(), p), nil
	default:
		return nil, fmt.Errorf("cluster: unknown workload %q", workload)
	}
}

// BuildMetBench scales MetBench: cfg.Workers workers per node (block
// placement) plus one master on node 0 keeping them all in strict
// synchronisation — the iteration barrier now spans the interconnect.
func BuildMetBench(c *Cluster, cfg workloads.MetBenchConfig, p JobParams) *workloads.Job {
	perNode := cfg.Workers
	if perNode == 0 {
		perNode = 4
	}
	nodes := len(c.Kernels)
	workers := perNode * nodes
	prios := tilePrios(p.StaticPrios, workers)
	w := c.NewWorld(workers+1, c.cfg.MPI)
	job := &workloads.Job{Name: "metbench", World: w}
	master := workers
	for i := 0; i < workers; i++ {
		i := i
		rng := rankRNG(p.Seed, i)
		work := cfg.SmallWork
		if i%2 == 1 {
			work = cfg.LargeWork
		}
		t := c.SpawnRank(i, i/perNode, rankSpec(p.Policy, prioOf(prios, i)), func(r *mpi.Rank) {
			r.Recv(master, 0)
			for it := 0; it < cfg.Iterations; it++ {
				d := work
				if cfg.JitterFrac > 0 {
					d = rng.Jitter(work, cfg.JitterFrac)
				}
				r.Compute(d)
				r.Send(master, 1+it, 64)
				r.Recv(master, 1+it)
			}
		})
		job.Tasks = append(job.Tasks, t)
	}
	mt := c.SpawnRank(master, 0, sched.TaskSpec{Name: "M", Policy: p.Policy},
		func(r *mpi.Rank) {
			for q := 0; q < workers; q++ {
				r.Send(q, 0, 1024)
			}
			for it := 0; it < cfg.Iterations; it++ {
				for q := 0; q < workers; q++ {
					r.Recv(q, 1+it)
				}
				for q := 0; q < workers; q++ {
					r.Send(q, 1+it, 64)
				}
			}
		})
	job.Tasks = append(job.Tasks, mt)
	return job
}

// BuildMetBenchVar scales MetBenchVar the same way; the small/large role
// still alternates by rank parity and reverses every K iterations.
func BuildMetBenchVar(c *Cluster, cfg workloads.MetBenchVarConfig, p JobParams) *workloads.Job {
	const perNode = 4
	nodes := len(c.Kernels)
	workers := perNode * nodes
	prios := tilePrios(p.StaticPrios, workers)
	w := c.NewWorld(workers+1, c.cfg.MPI)
	job := &workloads.Job{Name: "metbenchvar", World: w}
	master := workers
	for i := 0; i < workers; i++ {
		i := i
		t := c.SpawnRank(i, i/perNode, rankSpec(p.Policy, prioOf(prios, i)), func(r *mpi.Rank) {
			r.Recv(master, 0)
			for it := 0; it < cfg.Iterations; it++ {
				period := it / cfg.K
				smallRole := i%2 == 0
				if period%2 == 1 {
					smallRole = !smallRole
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
	mt := c.SpawnRank(master, 0, sched.TaskSpec{Name: "M", Policy: p.Policy},
		func(r *mpi.Rank) {
			for q := 0; q < workers; q++ {
				r.Send(q, 0, 1024)
			}
			for it := 0; it < cfg.Iterations; it++ {
				for q := 0; q < workers; q++ {
					r.Recv(q, 1+it)
				}
				for q := 0; q < workers; q++ {
					r.Send(q, 1+it, 64)
				}
			}
		})
	job.Tasks = append(job.Tasks, mt)
	return job
}

// BuildBTMZ scales the BT-MZ analogue: four zones per node along one global
// neighbour-exchange chain (block placement, so exactly one boundary pair
// per node border crosses the interconnect), zone sizes and phase skews
// cycling through the single-node calibration. The per-iteration residual
// reduction stays rooted at rank 0.
func BuildBTMZ(c *Cluster, cfg workloads.BTMZConfig, p JobParams) *workloads.Job {
	perNode := len(cfg.ZoneWork)
	nodes := len(c.Kernels)
	n := perNode * nodes
	prios := tilePrios(p.StaticPrios, n)
	w := c.NewWorld(n, c.cfg.MPI)
	job := &workloads.Job{Name: "btmz", World: w}
	// Within each node, spawn in the paper's pairing order so P(4g+1) and
	// P(4g+4) share a core (the Table V placement, tiled per node).
	order := make([]int, 0, n)
	for g := 0; g < nodes; g++ {
		if perNode == 4 {
			order = append(order, g*4+0, g*4+3, g*4+1, g*4+2)
		} else {
			for o := 0; o < perNode; o++ {
				order = append(order, g*perNode+o)
			}
		}
	}
	tasks := make([]*sched.Task, n)
	for _, i := range order {
		i := i
		rng := rankRNG(p.Seed, i)
		zone := cfg.ZoneWork[i%len(cfg.ZoneWork)]
		weights := [3]float64{0.33, 0.34, 0.33}
		if cfg.PhaseWeights != nil {
			weights = cfg.PhaseWeights[i%len(cfg.PhaseWeights)]
		}
		t := c.SpawnRank(i, i/perNode, rankSpec(p.Policy, prioOf(prios, i)), func(r *mpi.Rank) {
			r.Barrier()
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

// BuildSiesta scales the SIESTA analogue: the master stays on node 0 and
// farms sub-steps to three workers per node, the per-worker costs cycling
// through the single-node calibration.
func BuildSiesta(c *Cluster, cfg workloads.SiestaConfig, p JobParams) *workloads.Job {
	perNode := len(cfg.WorkerWork)
	nodes := len(c.Kernels)
	nw := perNode * nodes
	n := nw + 1 // workers are ranks 1..nw; the master is rank 0
	prios := tilePrios(p.StaticPrios, n)
	w := c.NewWorld(n, c.cfg.MPI)
	job := &workloads.Job{Name: "siesta", World: w}
	total := cfg.SCFIterations * cfg.SubSteps
	masterRNG := rankRNG(p.Seed, 0)
	mt := c.SpawnRank(0, 0, rankSpec(p.Policy, prioOf(prios, 0)), func(r *mpi.Rank) {
		r.Barrier()
		const depth = 2
		for j := 0; j < total; j++ {
			r.Compute(masterRNG.Jitter(cfg.MasterWork, cfg.JitterFrac))
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
	job.Tasks = append(job.Tasks, mt)
	for q := 1; q <= nw; q++ {
		q := q
		rng := rankRNG(p.Seed, q)
		work := cfg.WorkerWork[(q-1)%len(cfg.WorkerWork)]
		// Workers 1..perNode on node 0 beside the master, the next group
		// on node 1, and so on.
		node := (q - 1) / perNode
		t := c.SpawnRank(q, node, rankSpec(p.Policy, prioOf(prios, q)), func(r *mpi.Rank) {
			r.Barrier()
			for j := 0; j < total; j++ {
				r.Recv(0, j)
				r.Compute(rng.Jitter(work, cfg.JitterFrac))
				r.Send(0, j, cfg.ResponseBytes)
			}
		})
		job.Tasks = append(job.Tasks, t)
	}
	return job
}

// BuildMatMulDAG scales the matrix-multiply DAG with the update costs
// cycling through the calibration and ROUND-ROBIN placement: panel
// ownership rotates rank by rank, so consecutive owners — the migrating
// critical path — sit on different nodes and every panel broadcast
// crosses the interconnect.
func BuildMatMulDAG(c *Cluster, cfg workloads.MatMulDAGConfig, p JobParams) *workloads.Job {
	perNode := len(cfg.UpdateWork)
	nodes := len(c.Kernels)
	n := perNode * nodes
	prios := tilePrios(p.StaticPrios, n)
	w := c.NewWorld(n, c.cfg.MPI)
	job := &workloads.Job{Name: "matmul", World: w}
	owner := func(step int) int { return step % n }
	for i := 0; i < n; i++ {
		i := i
		rng := rankRNG(p.Seed, i)
		update := cfg.UpdateWork[i%len(cfg.UpdateWork)]
		jitter := func(d sim.Time) sim.Time {
			if cfg.JitterFrac > 0 {
				return rng.Jitter(d, cfg.JitterFrac)
			}
			return d
		}
		t := c.SpawnRank(i, i%nodes, rankSpec(p.Policy, prioOf(prios, i)), func(r *mpi.Rank) {
			r.Barrier()
			next := make([]mpi.Request, 0, 1)
			post := func(step int) {
				next = next[:0]
				if step < cfg.Panels && owner(step) != i {
					next = append(next, r.Irecv(owner(step), step))
				}
			}
			post(0)
			for step := 0; step < cfg.Panels; step++ {
				if owner(step) == i {
					r.Compute(jitter(cfg.PanelWork))
					for q := 0; q < n; q++ {
						if q != i {
							r.Isend(q, step, cfg.PanelBytes)
						}
					}
				} else {
					r.Waitall(next)
				}
				post(step + 1)
				r.Compute(jitter(update))
			}
		})
		job.Tasks = append(job.Tasks, t)
	}
	return job
}
