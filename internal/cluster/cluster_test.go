package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hpcsched/internal/mpi"
	"hpcsched/internal/power5"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

func newTestNode(node int, eng *sim.Engine) *sched.Kernel {
	return sched.NewKernel(eng, power5.NewChip(2, power5.NewCalibratedPerfModel()), sched.Options{})
}

// buildRingJob spawns two ranks per node running a global ring exchange:
// every iteration each rank computes, sends to its successor and receives
// from its predecessor, so every node border carries traffic both ways.
func buildRingJob(t *testing.T, cfg Config, iterations int) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Nodes * 2
	c.NewWorld(n, cfg.MPI)
	for i := 0; i < n; i++ {
		i := i
		rng := rankRNG(cfg.Seed, i)
		c.SpawnRank(i, i/2, sched.TaskSpec{}, func(r *mpi.Rank) {
			for it := 0; it < iterations; it++ {
				r.Compute(rng.Jitter(200*sim.Microsecond, 0.3))
				r.Send((i+1)%n, it, 4096)
				r.Recv((i+n-1)%n, it)
			}
		})
	}
	return c
}

// fingerprint renders everything observable about a finished run.
func fingerprint(c *Cluster, end sim.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "end=%v gvt=%v floor=%v\n", end, c.GVT(), c.Floor())
	for i := range c.Kernels {
		count, bytes, remote := c.World.NodeMsgStats(i)
		fmt.Fprintf(&b, "n%d end=%v capped=%v msgs=%d bytes=%d remote=%d\n",
			i, c.NodeEnd(i), c.Capped(i), count, bytes, remote)
	}
	return b.String()
}

func runRing(t *testing.T, nodes int, topology string, seed uint64) string {
	t.Helper()
	c := buildRingJob(t, Config{
		Nodes: nodes, Topology: topology, Seed: seed,
		MPI: mpi.DefaultOptions(), NewNode: newTestNode,
	}, 40)
	defer c.Shutdown()
	end, err := c.Run(0)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	for i := range c.Kernels {
		if c.Capped(i) {
			t.Fatalf("node %d capped at the horizon; the exchange deadlocked", i)
		}
	}
	return fingerprint(c, end)
}

// TestSeedsDiffer guards against the fingerprint being insensitive: two
// different seeds must not produce the identical run.
func TestSeedsDiffer(t *testing.T) {
	if runRing(t, 2, "flat", 1) == runRing(t, 2, "flat", 2) {
		t.Fatal("different seeds produced identical runs; fingerprint is blind")
	}
}

// TestZeroLookaheadRejected pins the deadlock regression: a latency floor
// of zero would make the conservative horizon vacuous, so Finalize must
// reject it with a structured error before anything runs.
func TestZeroLookaheadRejected(t *testing.T) {
	opts := mpi.DefaultOptions()
	opts.RemoteLatency = 0
	c := buildRingJob(t, Config{
		Nodes: 2, Seed: 1, MPI: opts, NewNode: newTestNode,
	}, 1)
	defer c.Shutdown()
	err := c.Finalize()
	var le *LookaheadError
	if !errors.As(err, &le) {
		t.Fatalf("Finalize = %v, want *LookaheadError", err)
	}
	if le.Floor != 0 {
		t.Errorf("LookaheadError.Floor = %v, want 0", le.Floor)
	}
	// Run must surface the same rejection when Finalize was skipped.
	c2 := buildRingJob(t, Config{
		Nodes: 2, Seed: 1, MPI: opts, NewNode: newTestNode,
	}, 1)
	defer c2.Shutdown()
	if _, err := c2.Run(0); !errors.As(err, &le) {
		t.Fatalf("Run after skipped Finalize = %v, want *LookaheadError", err)
	}
}

// TestUnknownTopologyRejected: the topology is validated up front.
func TestUnknownTopologyRejected(t *testing.T) {
	_, err := New(Config{Nodes: 2, Topology: "mesh", MPI: mpi.DefaultOptions(), NewNode: newTestNode})
	if err == nil {
		t.Fatal("New accepted an unknown topology")
	}
}

// TestHorizonCap: ranks that outlive the horizon leave their nodes marked
// capped, at exactly the horizon, identically under both pacings.
func TestHorizonCap(t *testing.T) {
	run := func(floorPacing bool) string {
		c, err := New(Config{
			Nodes: 2, Seed: 7, FloorPacing: floorPacing,
			MPI: mpi.DefaultOptions(), NewNode: newTestNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		c.NewWorld(2, mpi.DefaultOptions())
		for i := 0; i < 2; i++ {
			i := i
			c.SpawnRank(i, i, sched.TaskSpec{}, func(r *mpi.Rank) {
				for it := 0; ; it++ {
					r.Compute(1 * sim.Millisecond)
					r.Send(1-i, it, 64)
					r.Recv(1-i, it)
				}
			})
		}
		end, err := c.Run(20 * sim.Millisecond)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		if end != 20*sim.Millisecond {
			t.Fatalf("end = %v, want the 20ms horizon", end)
		}
		for i := 0; i < 2; i++ {
			if !c.Capped(i) {
				t.Errorf("node %d not capped", i)
			}
		}
		return fingerprint(c, end)
	}
	if a, b := run(true), run(false); a != b {
		t.Errorf("capped run diverges across pacings:\n got:\n%s\nwant:\n%s", b, a)
	}
}

// TestInterruptAborts: an engine interrupt (the hook watchdogs and contexts
// ride) with ranks still pending aborts the whole cluster with a structured
// *InterruptError naming the node.
func TestInterruptAborts(t *testing.T) {
	c := buildRingJob(t, Config{
		Nodes: 2, Seed: 3,
		MPI: mpi.DefaultOptions(), NewNode: newTestNode,
		OnNodeStop: func(node int) error { return fmt.Errorf("stopped by test (node %d)", node) },
	}, 1_000_000)
	defer c.Shutdown()
	eng := c.Engines[1]
	eng.SetInterrupt(64, func() bool { return eng.Now() > 5*sim.Millisecond })
	_, err := c.Run(0)
	var ie *InterruptError
	if !errors.As(err, &ie) {
		t.Fatalf("Run = %v, want *InterruptError", err)
	}
	if ie.Node != 1 {
		t.Errorf("InterruptError.Node = %d, want 1", ie.Node)
	}
	if ie.Cause == nil || !strings.Contains(ie.Cause.Error(), "stopped by test") {
		t.Errorf("InterruptError.Cause = %v, want the OnNodeStop verdict", ie.Cause)
	}
}

// TestCollectivesCrossNode: Barrier and the rooted collectives must work
// over the interconnect (the cluster barrier is message-based).
func TestCollectivesCrossNode(t *testing.T) {
	run := func(floorPacing bool) sim.Time {
		c, err := New(Config{
			Nodes: 2, Seed: 11, FloorPacing: floorPacing,
			MPI: mpi.DefaultOptions(), NewNode: newTestNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		c.NewWorld(4, mpi.DefaultOptions())
		for i := 0; i < 4; i++ {
			i := i
			c.SpawnRank(i, i/2, sched.TaskSpec{}, func(r *mpi.Rank) {
				for it := 0; it < 10; it++ {
					r.Compute(sim.Time(100+50*i) * sim.Microsecond)
					r.Barrier()
				}
				r.Allreduce(1024)
				r.Bcast(0, 2048)
			})
		}
		end, err := c.Run(0)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		for i := 0; i < 2; i++ {
			if c.Capped(i) {
				t.Fatalf("node %d capped; a collective hung", i)
			}
		}
		return end
	}
	if a, b := run(true), run(false); a != b {
		t.Errorf("collective run diverges across pacings: %v vs %v", a, b)
	}
}

// TestLookaheadFloorPacingEquivalence is the PDES determinism claim at the
// package level: the EOT/EIT lookahead horizon only moves window
// boundaries, so a run under it is byte-identical to the same run under
// the clock+floor cadence, on every topology.
func TestLookaheadFloorPacingEquivalence(t *testing.T) {
	for _, topo := range []string{"flat", "ring", "star"} {
		t.Run(topo, func(t *testing.T) {
			run := func(floorPacing bool) string {
				c := buildRingJob(t, Config{
					Nodes: 4, Topology: topo, Seed: 42,
					FloorPacing: floorPacing,
					MPI:         mpi.DefaultOptions(), NewNode: newTestNode,
				}, 40)
				defer c.Shutdown()
				end, err := c.Run(0)
				if err != nil {
					t.Fatalf("run failed: %v", err)
				}
				return fingerprint(c, end)
			}
			if got, want := run(false), run(true); got != want {
				t.Errorf("lookahead diverges from floor pacing:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestIdlePeerDoesNotBlockEIT pins the point of the EOT/EIT horizon: a
// peer with no pending sends must not hold its neighbours to the floor
// cadence. Node 1 computes one long stretch and exits without ever
// sending, while node 0's pair exchanges locally; under floor pacing the
// run costs ~span/floor windows, under lookahead the idle stretch must
// collapse to a handful.
func TestIdlePeerDoesNotBlockEIT(t *testing.T) {
	run := func(floorPacing bool) (*Cluster, sim.Time) {
		c, err := New(Config{
			Nodes: 2, Seed: 9,
			FloorPacing: floorPacing,
			MPI:         mpi.DefaultOptions(), NewNode: newTestNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.NewWorld(3, mpi.DefaultOptions())
		for i := 0; i < 2; i++ {
			i := i
			c.SpawnRank(i, 0, sched.TaskSpec{}, func(r *mpi.Rank) {
				for it := 0; it < 25; it++ {
					r.Compute(2 * sim.Millisecond)
					r.Send(1-i, it, 512)
					r.Recv(1-i, it)
				}
			})
		}
		c.SpawnRank(2, 1, sched.TaskSpec{}, func(r *mpi.Rank) {
			r.Compute(55 * sim.Millisecond)
		})
		end, err := c.Run(0)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return c, end
	}
	floor, floorEnd := run(true)
	defer floor.Shutdown()
	eot, eotEnd := run(false)
	defer eot.Shutdown()
	if fingerprint(floor, floorEnd) != fingerprint(eot, eotEnd) {
		t.Fatalf("pacing changed the simulation:\nfloor:\n%s\neot:\n%s",
			fingerprint(floor, floorEnd), fingerprint(eot, eotEnd))
	}
	fw, ew := floor.Windows(), eot.Windows()
	if ew*10 > fw {
		t.Errorf("lookahead windows = %d, floor windows = %d; want ≥10x collapse", ew, fw)
	}
	if eot.WindowsElided() == 0 {
		t.Errorf("lookahead run reports WindowsElided = 0; the idle stretch was not collapsed")
	}
	if floor.WindowsElided() != 0 {
		t.Errorf("floor-paced run reports WindowsElided = %d, want 0", floor.WindowsElided())
	}
}

// TestFinalSendBeforeExitDelivered pins the dropped-send regression: a
// rank whose last act is a cross-node Send exits while the send's
// zero-delay route step is still queued on its engine. The node must not
// count as finished until that step has handed the message over; if it
// stops at the exit instead, the receiver waits until the horizon.
func TestFinalSendBeforeExitDelivered(t *testing.T) {
	for name, floorPacing := range map[string]bool{"lookahead": false, "floor": true} {
		t.Run(name, func(t *testing.T) {
			c, err := New(Config{
				Nodes: 2, Seed: 5, FloorPacing: floorPacing,
				MPI: mpi.DefaultOptions(), NewNode: newTestNode,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Shutdown()
			c.NewWorld(2, mpi.DefaultOptions())
			got := false
			c.SpawnRank(0, 0, sched.TaskSpec{}, func(r *mpi.Rank) {
				r.Recv(1, 7)
				got = true
			})
			c.SpawnRank(1, 1, sched.TaskSpec{}, func(r *mpi.Rank) {
				r.Compute(100 * sim.Microsecond)
				r.Send(0, 7, 256)
			})
			end, err := c.Run(0)
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			for i := range c.Kernels {
				if c.Capped(i) {
					t.Errorf("node %d capped at the horizon; the last send was dropped", i)
				}
			}
			if !got || end >= sim.Second {
				t.Errorf("receiver completed=%v, end=%v", got, end)
			}
		})
	}
}

// TestRouteIntoPresentPanics: a cross-node arrival must lie strictly after
// the receiver's clock. One at exactly the clock would be injected before
// or after the receiver's own events at that instant depending on where
// the window boundary fell, so RouteMessage rejects it outright.
func TestRouteIntoPresentPanics(t *testing.T) {
	c, err := New(Config{Nodes: 2, Seed: 1, MPI: mpi.DefaultOptions(), NewNode: newTestNode})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	c.NewWorld(2, mpi.DefaultOptions())
	now := 50 * sim.Microsecond
	c.Engines[1].Run(now)
	c.RouteMessage(0, 1, now+1, nil, 0, 0, 8) // strictly ahead: accepted
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("RouteMessage accepted an arrival at the receiver's clock")
		}
		if msg := fmt.Sprint(v); !strings.Contains(msg, "node 1") {
			t.Errorf("panic %q does not name the receiving node", msg)
		}
	}()
	c.RouteMessage(0, 1, now, nil, 0, 0, 8)
}

// TestStalledPassPanics: with one goroutine, a pass in which no live node
// can advance can never recover, so Run must panic naming the stuck node
// instead of spinning. Sound bounds never get there; the test forges
// unsound ones (every eot far in the past) to block both nodes.
func TestStalledPassPanics(t *testing.T) {
	c := buildRingJob(t, Config{Nodes: 2, Seed: 1, MPI: mpi.DefaultOptions(), NewNode: newTestNode}, 1)
	defer c.Shutdown()
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	c.eot[0], c.eot[1] = -sim.Second, -sim.Second
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "no node can advance: node 0") {
			t.Errorf("Run panicked with %q, want the stall report naming node 0", msg)
		}
	}()
	c.Run(0)
}
