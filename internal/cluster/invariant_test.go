package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hpcsched/internal/mpi"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// enableInvariants installs the run-loop invariant check (popInvariant) for
// the rest of t; a violation fails t at the offending pop.
func enableInvariants(t testing.TB) {
	t.Helper()
	prev := checkPop
	checkPop = func(c *Cluster, top int) {
		if err := popInvariant(c, top); err != nil {
			t.Fatalf("run-loop invariant: %v", err)
		}
	}
	t.Cleanup(func() { checkPop = prev })
}

// popInvariant checks the event-ordered loop at one pop, by full scans:
//   - the heap holds exactly the live nodes, each under its current bound;
//   - the popped node has the minimum bound over all live nodes;
//   - where inputBound reads the heap instead of scanning (floor pacing,
//     or a uniform closure under lookahead), it equals the scan.
func popInvariant(c *Cluster, top int) error {
	for j := range c.Engines {
		k := c.queue.pos[j]
		if c.done[j] != (k < 0) {
			return fmt.Errorf("node %d: done=%v but heap position %d", j, c.done[j], k)
		}
		if c.done[j] {
			continue
		}
		if key := c.queue.ents[k].key; key != c.bound(j) {
			return fmt.Errorf("node %d: cached key %v, bound %v", j, key, c.bound(j))
		}
		if c.bound(j) < c.bound(top) {
			return fmt.Errorf("popped node %d (bound %v) but node %d has bound %v",
				top, c.bound(top), j, c.bound(j))
		}
	}
	if c.cfg.FloorPacing || c.uniform {
		if got, want := c.inputBound(top), scanInputBound(c, top); got != want {
			return fmt.Errorf("node %d: heap input bound %v, scan %v", top, got, want)
		}
	}
	return nil
}

// scanInputBound is inputBound by definition, with no heap: the slowest
// live peer's clock plus the floor under floor pacing, min_j(eot[j] +
// reach[j][i]) under lookahead.
func scanInputBound(c *Cluster, i int) sim.Time {
	if c.cfg.FloorPacing {
		minOther := sim.MaxTime
		for j, eng := range c.Engines {
			if j != i && !c.done[j] && eng.Now() < minOther {
				minOther = eng.Now()
			}
		}
		return satAdd(minOther, c.floor)
	}
	eit := sim.MaxTime
	for j, e := range c.eot {
		eit = min(eit, satAdd(e, c.reach[j][i]))
	}
	return eit
}

// buildExchange spawns perNode ranks on each node running a global ring
// exchange: every iteration each rank computes about work, sends to its
// successor and receives from its predecessor.
func buildExchange(t testing.TB, cfg Config, perNode, iterations int, work sim.Time) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Nodes * perNode
	c.NewWorld(n, cfg.MPI)
	for i := 0; i < n; i++ {
		i := i
		rng := rankRNG(cfg.Seed, i)
		c.SpawnRank(i, i/perNode, sched.TaskSpec{}, func(r *mpi.Rank) {
			for it := 0; it < iterations; it++ {
				r.Compute(rng.Jitter(work, 0.3))
				r.Send((i+1)%n, it, 4096)
				r.Recv((i+n-1)%n, it)
			}
		})
	}
	return c
}

// runBoth runs the same exchange under lookahead and floor pacing with the
// invariant check on, fails t unless the runs are identical — fingerprint
// and per-node fired-event counts — and returns both clusters, shut down.
func runBoth(t testing.TB, cfg Config, perNode, iterations int, work sim.Time) (eot, floor *Cluster) {
	t.Helper()
	enableInvariants(t)
	run := func(floorPacing bool) (*Cluster, string) {
		cfg := cfg
		cfg.FloorPacing = floorPacing
		c := buildExchange(t, cfg, perNode, iterations, work)
		defer c.Shutdown()
		end, err := c.Run(0)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		fp := fingerprint(c, end)
		for i, eng := range c.Engines {
			if c.Capped(i) {
				t.Fatalf("node %d capped at the horizon; the exchange deadlocked", i)
			}
			fp += fmt.Sprintf("n%d fired=%d\n", i, eng.Stats().Fired)
		}
		return c, fp
	}
	eot, got := run(false)
	floor, want := run(true)
	if got != want {
		t.Fatalf("lookahead diverges from floor pacing:\n got:\n%s\nwant:\n%s", got, want)
	}
	return eot, floor
}

// TestFlatSixteenNodes runs the event-ordered loop at 16 flat nodes, where
// the input bound takes the uniform-closure fast path, against floor
// pacing with the invariant check on, and checks that the lookahead pays
// for itself in windows.
func TestFlatSixteenNodes(t *testing.T) {
	eot, floor := runBoth(t, Config{
		Nodes: 16, Topology: "flat", Seed: 42,
		MPI: mpi.DefaultOptions(), NewNode: newTestNode,
	}, 2, 20, 200*sim.Microsecond)
	if !eot.uniform {
		t.Fatal("16-node flat cluster with ranks on every node: closure not detected as uniform")
	}
	if ew, fw := eot.Windows(), floor.Windows(); ew >= fw {
		t.Errorf("lookahead windows = %d, floor windows = %d; want fewer under lookahead", ew, fw)
	}
}

// TestUniformClosure: the fast path is taken exactly when every
// off-diagonal reach entry is one latency and every diagonal one round
// trip — flat with ranks everywhere, and 3-node rings, whose nodes are all
// one hop apart — and never on 4-node rings, stars or a flat cluster with
// an empty node, whose reach rows differ.
func TestUniformClosure(t *testing.T) {
	for _, tc := range []struct {
		nodes, ranks int
		topo         string
		want         bool
	}{
		{1, 2, "flat", true},
		{4, 8, "flat", true},
		{16, 32, "flat", true},
		{3, 6, "ring", true},
		{4, 8, "ring", false},
		{4, 8, "star", false},
		{3, 4, "flat", false}, // ranks 0..3 fill nodes 0 and 1; node 2 is empty
	} {
		c, err := New(Config{Nodes: tc.nodes, Topology: tc.topo, Seed: 1,
			MPI: mpi.DefaultOptions(), NewNode: newTestNode})
		if err != nil {
			t.Fatal(err)
		}
		c.NewWorld(tc.ranks, mpi.DefaultOptions())
		for i := 0; i < tc.ranks; i++ {
			c.SpawnRank(i, i/2, sched.TaskSpec{}, func(r *mpi.Rank) {})
		}
		if err := c.Finalize(); err != nil {
			t.Fatal(err)
		}
		if c.uniform != tc.want {
			t.Errorf("%d-node %s with %d ranks: uniform = %v, want %v",
				tc.nodes, tc.topo, tc.ranks, c.uniform, tc.want)
		}
		c.Shutdown()
	}
}

// TestNodeHeapVsSortedReference drives the heap with random pushes,
// re-keys, lowers and removals and checks its top and minChild against a
// sorted reference after every operation.
func TestNodeHeapVsSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const nodes = 9
	for round := 0; round < 200; round++ {
		h := newNodeHeap(nodes)
		keys := map[int]sim.Time{}
		for op := 0; op < 60; op++ {
			i := rng.Intn(nodes)
			key := sim.Time(rng.Intn(8))
			_, queued := keys[i]
			switch {
			case !queued:
				h.push(i, key)
				keys[i] = key
			case rng.Intn(4) == 0:
				h.remove(i)
				delete(keys, i)
			case rng.Intn(2) == 0:
				h.lower(i, key)
				keys[i] = min(keys[i], key)
			default:
				h.set(i, key)
				keys[i] = key
			}
			type ent struct {
				key  sim.Time
				node int
			}
			var ref []ent
			for n, k := range keys {
				ref = append(ref, ent{k, n})
			}
			slices.SortFunc(ref, func(a, b ent) int {
				if a.key != b.key {
					return int(a.key - b.key)
				}
				return a.node - b.node
			})
			if h.len() != len(ref) {
				t.Fatalf("round %d op %d: len %d, want %d", round, op, h.len(), len(ref))
			}
			if len(ref) == 0 {
				continue
			}
			wantChild := sim.MaxTime
			if len(ref) > 1 {
				wantChild = ref[1].key
			}
			if h.top() != ref[0].node || h.minChild() != wantChild {
				t.Fatalf("round %d op %d: top %d minChild %v, want %d and %v",
					round, op, h.top(), h.minChild(), ref[0].node, wantChild)
			}
			for n := range nodes {
				if _, ok := keys[n]; ok != (h.pos[n] >= 0) || ok && h.ents[h.pos[n]].node != n {
					t.Fatalf("round %d op %d: position index of node %d is stale", round, op, n)
				}
			}
		}
	}
}

// FuzzLookaheadFloorPacing builds small random clusters — 2 to 4 nodes,
// flat, ring or star, a random seed, ranks per node, iteration count and
// compute grain — and requires lookahead and floor pacing to produce the
// identical run (node ends, message counts and per-node fired events),
// with the run-loop invariant check on. The seed corpus, one input per
// topology at 2 to 4 nodes, is in testdata/fuzz/FuzzLookaheadFloorPacing.
func FuzzLookaheadFloorPacing(f *testing.F) {
	f.Fuzz(func(t *testing.T, nodes, topo uint8, seed uint64, perNode, iterations uint8, workUS uint16) {
		cfg := Config{
			Nodes:    2 + int(nodes%3),
			Topology: topologies[int(topo)%len(topologies)],
			Seed:     seed,
			MPI:      mpi.DefaultOptions(),
			NewNode:  newTestNode,
		}
		work := sim.Time(10+workUS%1000) * sim.Microsecond
		runBoth(t, cfg, 1+int(perNode%3), 1+int(iterations%24), work)
	})
}
