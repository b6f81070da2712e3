package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpcsched/internal/faults"
	"hpcsched/internal/sim"
	"hpcsched/internal/workloads"
)

// update regenerates the cluster golden: UPDATE_GOLDEN=1 go test ./internal/experiments/ -run ClusterGolden
var update = os.Getenv("UPDATE_GOLDEN") != ""

// clusterCfg builds a small multi-node run: the paper workloads with their
// iteration counts shrunk so a full cluster simulation stays test-sized.
func clusterCfg(workload string, nodes int, topology string, seed uint64) Config {
	return Config{
		Workload: workload,
		Mode:     ModeAdaptive,
		Seed:     seed,
		Nodes:    nodes,
		Topology: topology,
		Trace:    true,
		TweakMetBench: func(c *workloads.MetBenchConfig) {
			c.Iterations = 3
			c.SmallWork = 40 * sim.Millisecond
			c.LargeWork = 230 * sim.Millisecond
		},
		TweakMetBenchVar: func(c *workloads.MetBenchVarConfig) {
			c.Iterations = 4
			c.K = 2
			c.SmallWork = 60 * sim.Millisecond
			c.LargeWork = 340 * sim.Millisecond
		},
		TweakBTMZ: func(c *workloads.BTMZConfig) { c.Iterations = 3 },
		TweakSiesta: func(c *workloads.SiestaConfig) {
			c.SCFIterations = 2
			c.SubSteps = 3
		},
		TweakMatMulDAG: func(c *workloads.MatMulDAGConfig) {
			c.Panels = 8
			c.PanelWork = 30 * sim.Millisecond
		},
	}
}

// clusterRunFingerprint runs the config and renders everything the pacing
// must not change: the cluster timeline, the fault timeline and every
// node's rendered .prv trace. A node capped at the horizon fails the test:
// these workloads all finish well inside it, so a capped node is a hung
// run, and two hung runs would compare equal.
func clusterRunFingerprint(t *testing.T, cfg Config) string {
	t.Helper()
	res, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
	for node, capped := range res.Cluster.Capped {
		if capped {
			t.Fatalf("node %d capped at the %v horizon; the run hung", node, res.ExecTime)
		}
	}
	var b strings.Builder
	b.WriteString(ClusterTimeline(res))
	for node, rec := range res.Cluster.Recorders {
		if rec == nil {
			continue
		}
		fmt.Fprintf(&b, "--- node %d trace ---\n%s", node, rec.ExportPRV())
	}
	return b.String()
}

// TestClusterGoldenTimeline pins the headline determinism claim: every
// workload's cluster timeline matches its committed golden byte-for-byte.
// BT-MZ runs on 4 flat nodes under faults; the other workloads run Static
// (tiled hand-tuned priorities) on 3 ring nodes, MetBench with jitter on so
// the per-rank streams show. Regenerate with UPDATE_GOLDEN=1.
func TestClusterGoldenTimeline(t *testing.T) {
	btmz := clusterCfg("btmz", 4, "flat", 42)
	btmz.Faults = faults.MustParse("slow:n=2,factor=0.5,dur=500ms,by=2s;mpidelay:n=1,extra=200us,dur=1s,by=3s")
	cases := []Config{btmz}
	for _, wl := range []string{"metbench", "metbenchvar", "siesta", "matmul"} {
		cfg := clusterCfg(wl, 3, "ring", 42)
		cfg.Mode = ModeStatic
		shrink := cfg.TweakMetBench
		cfg.TweakMetBench = func(c *workloads.MetBenchConfig) {
			shrink(c)
			c.JitterFrac = 0.1
		}
		cases = append(cases, cfg)
	}
	for _, cfg := range cases {
		t.Run(cfg.Workload, func(t *testing.T) {
			got := clusterRunFingerprint(t, cfg)
			path := filepath.Join("testdata", "golden_cluster_"+cfg.Workload+".txt")
			if update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("cluster timeline differs from golden:\n%s", firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff renders the first line where two multi-line strings diverge.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n want: %s\n  got: %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(wl), len(gl))
}

// TestClusterFaultTimelinePerNode: every node compiles and applies its own
// timeline, and the merged log prefixes each line with its node.
func TestClusterFaultTimelinePerNode(t *testing.T) {
	cfg := clusterCfg("metbench", 2, "flat", 7)
	cfg.Faults = faults.MustParse("slow:n=1,factor=0.5,dur=200ms,by=1s")
	res, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 2; node++ {
		if !strings.Contains(res.FaultTimeline, fmt.Sprintf("n%d ", node)) {
			t.Errorf("fault timeline missing node %d entries:\n%s", node, res.FaultTimeline)
		}
	}
}

// TestClusterCancelAborts: context cancellation reaches every node engine
// and surfaces as a single *AbortError; with HPCSCHED_DIAG_DIR set the
// diagnostic dump lands on disk for CI to upload.
func TestClusterCancelAborts(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("HPCSCHED_DIAG_DIR", dir)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := clusterCfg("metbench", 2, "flat", 3)
	// Cancellation is polled every interruptStride fired events; keep the
	// full-size workload so every node comfortably outlives the first poll.
	cfg.TweakMetBench = nil
	_, err := RunCtx(ctx, cfg)
	var aerr *AbortError
	if !errors.As(err, &aerr) {
		t.Fatalf("RunCtx = %v, want *AbortError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("abort does not unwrap to context.Canceled: %v", err)
	}
	if aerr.Dump == "" {
		t.Error("abort carries no diagnostic dump")
	}
	files, err := os.ReadDir(dir)
	if err != nil || len(files) == 0 {
		t.Fatalf("no diagnostic dump written to HPCSCHED_DIAG_DIR (files=%v, err=%v)", files, err)
	}
	body, err := os.ReadFile(filepath.Join(dir, files[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "reason:") {
		t.Errorf("dump file lacks the abort reason:\n%s", body)
	}
}

// TestScenarioSpecClusterFields: the spec plumbs the cluster knobs into
// every expanded replica config.
func TestScenarioSpecClusterFields(t *testing.T) {
	spec := ScenarioSpec{
		Workload: "btmz", Mode: ModeUniform, Seed: 5,
		Nodes: 4, Topology: "ring", Replicas: 2,
	}
	cfgs := spec.Configs()
	if len(cfgs) != 2 {
		t.Fatalf("expanded %d configs, want 2", len(cfgs))
	}
	for i, c := range cfgs {
		if c.Nodes != 4 || c.Topology != "ring" {
			t.Errorf("config %d lost cluster fields: nodes=%d topology=%q",
				i, c.Nodes, c.Topology)
		}
	}
}

// TestClusterPlacementSpansNodes: the scaled workloads really distribute
// ranks across nodes (block for the benchmarks, round-robin for the DAG)
// and traffic crosses the interconnect.
func TestClusterPlacementSpansNodes(t *testing.T) {
	for _, workload := range []string{"metbench", "btmz", "matmul"} {
		cfg := clusterCfg(workload, 2, "flat", 9)
		res, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		onNode := map[int]int{}
		for _, n := range res.Cluster.RankNodes {
			onNode[n]++
		}
		if onNode[0] == 0 || onNode[1] == 0 {
			t.Errorf("%s: ranks not spread over nodes: %v", workload, onNode)
		}
		if res.World.RemoteMsgCount() == 0 {
			t.Errorf("%s: no inter-node messages at all", workload)
		}
	}
}

// TestClusterShardEquivalenceRandomized: ScenarioSpec.Shards is deprecated
// and ignored, so a scenario that still asks for 4 shards (old scenario
// files, the benchmark harness) must run byte-identically to the same
// scenario without it, over every workload, topology and two seeds with a
// stall fault.
func TestClusterShardEquivalenceRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	seeds := []uint64{1, 1043}
	topologies := []string{"flat", "ring", "star"}
	for _, workload := range []string{"metbench", "matmul", "siesta", "metbenchvar"} {
		for _, seed := range seeds {
			for _, topo := range topologies {
				name := fmt.Sprintf("%s/%s/seed%d", workload, topo, seed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					base := clusterCfg(workload, 3, topo, seed)
					spec := ScenarioSpec{
						Workload: workload, Mode: base.Mode, Seed: seed,
						Nodes: 3, Topology: topo, Trace: true,
						Faults:   faults.MustParse("stall:n=1,dur=100ms,by=1s"),
						Advanced: &base,
					}
					run := func(spec ScenarioSpec) string {
						cfgs := spec.Configs()
						if len(cfgs) != 1 {
							t.Fatalf("spec expanded to %d configs, want 1", len(cfgs))
						}
						return clusterRunFingerprint(t, cfgs[0])
					}
					unsharded := run(spec)
					spec.Shards = 4
					if got := run(spec); got != unsharded {
						t.Errorf("run with Shards=4 diverges:\n%s", firstDiff(unsharded, got))
					}
				})
			}
		}
	}
}

// TestLookaheadFloorEquivalence is the PDES determinism sweep: the EOT/EIT
// lookahead only moves sync-window boundaries, so every run must be
// byte-identical to the same run forced onto the clock+floor cadence
// (Config.FloorPacing), timelines, fault logs and traces included. The
// grid covers BT-MZ at 2, 4 and 16 nodes and every other workload at 3
// nodes, each over every topology and two seeds with a stall fault.
func TestLookaheadFloorEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	type input struct {
		name string
		cfg  Config
	}
	var inputs []input
	seeds := []uint64{1, 1043}
	topologies := []string{"flat", "ring", "star"}
	for _, nodes := range []int{2, 4, 16} {
		for _, seed := range seeds {
			for _, topo := range topologies {
				cfg := clusterCfg("btmz", nodes, topo, seed)
				cfg.TweakBTMZ = func(c *workloads.BTMZConfig) { c.Iterations = 2 }
				inputs = append(inputs, input{fmt.Sprintf("n%d/%s/seed%d", nodes, topo, seed), cfg})
			}
		}
	}
	for _, workload := range []string{"metbench", "matmul", "siesta", "metbenchvar"} {
		for _, seed := range seeds {
			for _, topo := range topologies {
				cfg := clusterCfg(workload, 3, topo, seed)
				inputs = append(inputs, input{fmt.Sprintf("%s/%s/seed%d", workload, topo, seed), cfg})
			}
		}
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			cfg := in.cfg
			cfg.Faults = faults.MustParse("stall:n=1,dur=100ms,by=1s")
			cfg.FloorPacing = true
			floor := clusterRunFingerprint(t, cfg)
			cfg.FloorPacing = false
			if got := clusterRunFingerprint(t, cfg); got != floor {
				t.Errorf("lookahead run diverges from floor pacing:\n%s", firstDiff(floor, got))
			}
		})
	}
}
