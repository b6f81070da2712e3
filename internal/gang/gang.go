// Package gang implements the paper's future-work extension (§VI): the
// cluster level of load balancing. Modern supercomputers consist of
// thousands of nodes; HPCSched balances tasks *within* a node, so "there
// is another level of load balancing which consists of assigning the
// correct group of tasks to each node (gang scheduling) considering that
// the local scheduler is able to dynamically assign more or less hardware
// resource to each task."
//
// Each node is the paper's machine — a POWER5 chip with its own kernel,
// optional HPC class and OS noise — simulated by internal/cluster, which
// gives every node its own engine and couples them by the interconnect's
// latency. Placers assign MPI ranks to nodes from their expected load
// weights; within each node the per-node HPCSched instance does the
// fine-grained balancing.
package gang

import (
	"fmt"
	"sort"

	"hpcsched/internal/cluster"
	"hpcsched/internal/core"
	"hpcsched/internal/mpi"
	"hpcsched/internal/noise"
	"hpcsched/internal/power5"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// Config describes a simulated cluster.
type Config struct {
	// Nodes is the number of nodes (default 2).
	Nodes int
	// Seed drives all randomness.
	Seed uint64
	// HPC, when non-nil, installs an HPC class on every node.
	HPC *core.Config
}

// newCluster builds cfg's nodes on internal/cluster. Every node is the
// paper's machine: 2 cores × 2 SMT contexts on the calibrated POWER5
// model, default kernel options and default OS noise.
func newCluster(cfg Config) *cluster.Cluster {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 2
	}
	c, err := cluster.New(cluster.Config{
		Nodes: cfg.Nodes,
		Seed:  cfg.Seed,
		MPI:   mpi.DefaultOptions(),
		NewNode: func(_ int, eng *sim.Engine) *sched.Kernel {
			k := sched.NewKernel(eng, power5.NewChip(2, power5.NewCalibratedPerfModel()), sched.Options{})
			if cfg.HPC != nil {
				core.MustInstall(k, *cfg.HPC)
			}
			noise.Install(k, noise.DefaultConfig())
			return k
		},
	})
	if err != nil {
		panic(err) // unreachable: NewNode is set and the topology is flat
	}
	return c
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

// Placer assigns ranks to nodes from their expected per-iteration load
// weights.
type Placer interface {
	// Name identifies the strategy.
	Name() string
	// Assign returns, for each rank, the node it should run on. Every
	// node must receive at most capacity ranks.
	Assign(weights []float64, nodes, capacity int) []int
}

// BlockPlacer is the naive contiguous assignment most MPI launchers
// default to: the first capacity ranks on node 0, the next on node 1, ...
type BlockPlacer struct{}

// Name implements Placer.
func (BlockPlacer) Name() string { return "block" }

// Assign implements Placer.
func (BlockPlacer) Assign(weights []float64, nodes, capacity int) []int {
	checkCapacity(len(weights), nodes, capacity)
	out := make([]int, len(weights))
	for i := range weights {
		out[i] = i / capacity
	}
	return out
}

// RoundRobinPlacer deals ranks across nodes in order.
type RoundRobinPlacer struct{}

// Name implements Placer.
func (RoundRobinPlacer) Name() string { return "round-robin" }

// Assign implements Placer.
func (RoundRobinPlacer) Assign(weights []float64, nodes, capacity int) []int {
	checkCapacity(len(weights), nodes, capacity)
	out := make([]int, len(weights))
	for i := range weights {
		out[i] = i % nodes
	}
	return out
}

// LPTPlacer is the gang scheduler: greedy longest-processing-time-first
// assignment, placing each rank (heaviest first) on the node with the
// least accumulated load that still has room. This is the "assign the
// correct group of tasks to each node" level; HPCSched then absorbs the
// residual imbalance inside each node.
type LPTPlacer struct{}

// Name implements Placer.
func (LPTPlacer) Name() string { return "gang-lpt" }

// Assign implements Placer.
func (LPTPlacer) Assign(weights []float64, nodes, capacity int) []int {
	checkCapacity(len(weights), nodes, capacity)
	idx := make([]int, len(weights))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return weights[idx[a]] > weights[idx[b]] })
	load := make([]float64, nodes)
	count := make([]int, nodes)
	out := make([]int, len(weights))
	for _, i := range idx {
		best := -1
		for n := 0; n < nodes; n++ {
			if count[n] >= capacity {
				continue
			}
			if best < 0 || load[n] < load[best] {
				best = n
			}
		}
		if best < 0 {
			panic("gang: cluster capacity exceeded")
		}
		out[i] = best
		load[best] += weights[i]
		count[best]++
	}
	return out
}

func checkCapacity(ranks, nodes, capacity int) {
	if ranks > nodes*capacity {
		panic(fmt.Sprintf("gang: %d ranks exceed cluster capacity %d×%d",
			ranks, nodes, capacity))
	}
}

// MaxNodeLoad returns the largest per-node weight sum of an assignment —
// the lower bound on the job's pace set by placement alone.
func MaxNodeLoad(weights []float64, assign []int, nodes int) float64 {
	load := make([]float64, nodes)
	for i, n := range assign {
		load[n] += weights[i]
	}
	max := 0.0
	for _, v := range load {
		if v > max {
			max = v
		}
	}
	return max
}
