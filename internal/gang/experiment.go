package gang

import (
	"fmt"

	"hpcsched/internal/core"
	"hpcsched/internal/metrics"
	"hpcsched/internal/mpi"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// JobConfig describes the canonical cluster experiment: an iterative SPMD
// job with heterogeneous per-rank loads, globally synchronised each
// iteration (the hardest case for placement).
type JobConfig struct {
	// Weights are the per-rank loads in seconds of single-thread work per
	// iteration.
	Weights []sim.Time
	// Iterations is the outer loop count.
	Iterations int
	// UseHPC runs the ranks under SCHED_HPC (requires the cluster's
	// nodes to have the class installed).
	UseHPC bool
}

// DefaultJob returns an 8-rank job whose weights defeat contiguous
// placement: the heavy ranks are all in the first half.
func DefaultJob() JobConfig {
	return JobConfig{
		Weights: []sim.Time{
			800 * sim.Millisecond,
			700 * sim.Millisecond,
			600 * sim.Millisecond,
			500 * sim.Millisecond,
			200 * sim.Millisecond,
			200 * sim.Millisecond,
			100 * sim.Millisecond,
			100 * sim.Millisecond,
		},
		Iterations: 10,
		UseHPC:     true,
	}
}

// ExperimentResult reports one cluster run.
type ExperimentResult struct {
	Placer    string
	Assign    []int
	ExecTime  sim.Time
	MaxLoad   float64 // placement-induced lower bound (weight units)
	Summaries []metrics.TaskSummary
}

// RunExperiment builds a fresh cluster from cfg, places job's ranks with
// the placer and runs the job to completion.
func RunExperiment(clusterCfg Config, job JobConfig, placer Placer) ExperimentResult {
	c := newCluster(clusterCfg)
	defer c.Shutdown()
	nodes := len(c.Kernels)
	capacity := c.Kernels[0].NumCPUs()
	weights := make([]float64, len(job.Weights))
	for i, w := range job.Weights {
		weights[i] = w.Seconds()
	}
	assign := placer.Assign(weights, nodes, capacity)

	c.NewWorld(len(job.Weights), mpi.DefaultOptions())
	policy := sched.PolicyNormal
	if job.UseHPC {
		policy = sched.PolicyHPC
	}
	// The lightest rank doubles as the iteration coordinator (as
	// MetBench's master does), so even the heaviest rank has a wait
	// phase per iteration — the detector's trigger.
	coord := len(job.Weights) - 1
	var tasks []*sched.Task
	for i := range job.Weights {
		i := i
		work := job.Weights[i]
		t := c.SpawnRank(i, assign[i], sched.TaskSpec{Policy: policy},
			func(r *mpi.Rank) {
				for it := 0; it < job.Iterations; it++ {
					r.Compute(work)
					if i == coord {
						for p := 0; p < len(job.Weights)-1; p++ {
							r.Recv(p, it)
						}
						for p := 0; p < len(job.Weights)-1; p++ {
							r.Send(p, it, 64)
						}
					} else {
						r.Send(coord, it, 64)
						r.Recv(coord, it)
					}
				}
			})
		tasks = append(tasks, t)
	}
	end, err := c.Run(3600 * sim.Second)
	if err != nil {
		panic(err) // unreachable: default latencies, no interrupt hook
	}
	c.Settle()
	return ExperimentResult{
		Placer:    placer.Name(),
		Assign:    assign,
		ExecTime:  end,
		MaxLoad:   MaxNodeLoad(weights, assign, nodes),
		Summaries: metrics.Summarize(tasks, end),
	}
}

// ComparePlacers runs the job under every placer on identical clusters and
// returns the results in placer order.
func ComparePlacers(clusterCfg Config, job JobConfig, placers ...Placer) []ExperimentResult {
	if len(placers) == 0 {
		placers = []Placer{BlockPlacer{}, RoundRobinPlacer{}, LPTPlacer{}}
	}
	out := make([]ExperimentResult, 0, len(placers))
	for _, p := range placers {
		out = append(out, RunExperiment(clusterCfg, job, p))
	}
	return out
}

// FormatComparison renders a placer comparison table.
func FormatComparison(results []ExperimentResult) string {
	header := []string{"Placer", "Assignment", "MaxNodeLoad", "Exec", "vs first"}
	rows := make([][]string, 0, len(results))
	base := results[0].ExecTime
	for _, r := range results {
		rows = append(rows, []string{
			r.Placer,
			fmt.Sprintf("%v", r.Assign),
			fmt.Sprintf("%.2f", r.MaxLoad),
			fmt.Sprintf("%.2fs", r.ExecTime.Seconds()),
			fmt.Sprintf("%+.1f%%", 100*metrics.Improvement(base, r.ExecTime)),
		})
	}
	return metrics.Table(header, rows)
}

// HPCConfigForCluster returns the HPC class configuration used by the
// cluster experiments (Uniform heuristic, default tunables).
func HPCConfigForCluster() *core.Config {
	return &core.Config{Heuristic: core.UniformHeuristic{}}
}
