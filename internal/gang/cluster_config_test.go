package gang

import (
	"testing"

	"hpcsched/internal/power5"
)

// TestNewClusterConfigTable pins the constructor's configuration surface:
// node-count defaults, and every node is the paper's 2×2 machine on the
// calibrated perf model.
func TestNewClusterConfigTable(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cfg       Config
		wantNodes int
		wantCPUs  int
	}{
		{
			name:      "zero value defaults to a 2x2 cluster",
			cfg:       Config{Seed: 1},
			wantNodes: 2,
			wantCPUs:  8,
		},
		{
			name:      "non-positive sizes fall back to defaults",
			cfg:       Config{Nodes: -3, Seed: 1},
			wantNodes: 2,
			wantCPUs:  8,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(tc.cfg)
			defer c.Shutdown()
			cpus := 0
			for _, k := range c.Kernels {
				cpus += k.NumCPUs()
			}
			if len(c.Kernels) != tc.wantNodes || cpus != tc.wantCPUs {
				t.Fatalf("cluster shape = %d nodes / %d cpus, want %d / %d",
					len(c.Kernels), cpus, tc.wantNodes, tc.wantCPUs)
			}
			for i, k := range c.Kernels {
				if _, ok := k.Chip.PerfModel().(*power5.CalibratedPerfModel); !ok {
					t.Fatalf("node %d perf model %T, want calibrated", i, k.Chip.PerfModel())
				}
			}
		})
	}
}

// TestLPTAssignTable pins the greedy placement itself, including the
// capacity-full skip: once a node holds capacity ranks, later (lighter)
// ranks must spill to heavier-loaded nodes with room.
func TestLPTAssignTable(t *testing.T) {
	for _, tc := range []struct {
		name            string
		weights         []float64
		nodes, capacity int
		want            []int
	}{
		{
			name:    "classic LPT balance",
			weights: []float64{5, 4, 3, 2},
			nodes:   2, capacity: 2,
			// 5→n0, 4→n1, 3→n1 (4<5), 2→n0.
			want: []int{0, 1, 1, 0},
		},
		{
			name:    "capacity forces spill to the heavier node",
			weights: []float64{5, 4, 3, 2, 1, 1},
			nodes:   2, capacity: 3,
			// 5→n0, 4→n1, 3→n1, 2→n0, 1→n0 (tie keeps the first node),
			// filling n0; the last rank must skip full n0 and land on n1.
			want: []int{0, 1, 1, 0, 0, 1},
		},
		{
			name:    "single node takes everything",
			weights: []float64{1, 2, 3},
			nodes:   1, capacity: 3,
			want: []int{0, 0, 0},
		},
		{
			name:    "equal weights round out stably",
			weights: []float64{1, 1, 1, 1},
			nodes:   4, capacity: 1,
			want: []int{0, 1, 2, 3},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := LPTPlacer{}.Assign(tc.weights, tc.nodes, tc.capacity)
			if len(got) != len(tc.want) {
				t.Fatalf("Assign returned %d placements for %d ranks", len(got), len(tc.want))
			}
			count := make([]int, tc.nodes)
			for i, n := range got {
				if n != tc.want[i] {
					t.Fatalf("Assign = %v, want %v", got, tc.want)
				}
				count[n]++
			}
			for n, c := range count {
				if c > tc.capacity {
					t.Fatalf("node %d holds %d ranks, capacity %d", n, c, tc.capacity)
				}
			}
		})
	}
}
