// Package cluster simulates a whole machine room: N node-local kernels —
// each the single-node engine of internal/sim + internal/sched — coupled
// by an inter-node MPI latency model and advanced one window at a time, on
// the calling goroutine, by a conservative (Chandy–Misra–Bryant) discrete-
// event simulation.
//
// Every inter-node message costs at least the latency floor L (the
// interconnect's RemoteLatency plus the smallest topology add-on over
// cross-node rank pairs). A node at clock c has fired every event at ≤ c,
// so any message it has not yet sent fires at ≥ c+1 and arrives at
// ≥ c+1+L. Node i may therefore simulate up to
//
//	h_i = min_{j≠i} c_j + L − 1
//
// without ever receiving a message in its past. L ≤ 1 would make that
// horizon vacuous — a zero-lookahead deadlock — and is rejected with a
// structured *LookaheadError before the run starts.
//
// The clock bound is only the fallback (Config.FloorPacing). The default
// pacing is Nicol-style EOT/EIT lookahead. Node i keeps eot[i], a lower
// bound on every future event it holds: pending engine events
// (Engine.NextEventAt), staged-but-uninjected arrivals and unflushed
// deferred sends. Every message chain pays at least the pair latency per
// hop, so with R the min-plus path closure of the per-pair latency floors
// (computed once in Finalize), node i's earliest input time is
//
//	EIT_i = min_j (eot[j] + R_{j→i})
//
// and the node advances in ONE window to EIT_i − 1 (the same strictness
// tick as the floor bound): idle and compute-only stretches collapse into
// single windows (WindowsElided counts the collapse), and the per-pair
// closure keeps ring/star topologies from serialising on the global
// minimum. RouteMessage stages a message with its receiver and lowers the
// receiver's eot to the arrival in the same step, so every in-flight chain
// is covered by some node's bound at every instant.
//
// Run steps the nodes in event order. The live nodes sit in a min-heap
// keyed by their pacing bound (eot, or the clock under floor pacing), and
// each turn runs the heap top for one window. The top can always advance:
// its input bound is at least its own bound plus L, past its clock, so no
// turn is wasted on a node that has nothing to do yet. When the closure is
// uniform — one latency between any two nodes and one round trip, as on a
// flat topology with ranks on every node — the top's EIT needs only the
// smallest other bound, which the heap holds in the top's children, so a
// window costs O(log N) instead of an O(N) scan.
//
// Determinism is the headline property: the event sequence of every node —
// and therefore timelines, traces and fault logs — does not depend on where
// the window boundaries fall. Cross-node deliveries are injected by a
// window-invariant protocol (see stepNode), so both pacings produce the
// byte-identical simulation.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"hpcsched/internal/batch"
	"hpcsched/internal/mpi"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
	"hpcsched/internal/workloads"
)

// nodeEngineSalt separates the per-node engine RNG streams from every other
// derived stream in the tree (batch replicas, storms, fault compiles).
const nodeEngineSalt = 0xc105_7e20_0000_0000

// topologies are the Config.Topology names; "" means "flat".
var topologies = []string{"flat", "ring", "star"}

// CheckTopology returns an error naming the accepted topologies unless
// name is one of them or "" (flat).
func CheckTopology(name string) error {
	if name == "" || slices.Contains(topologies, name) {
		return nil
	}
	return fmt.Errorf("cluster: unknown topology %q (%s)", name, strings.Join(topologies, "|"))
}

// Config describes a multi-node cluster simulation.
type Config struct {
	// Nodes is the number of simulated nodes (≥ 1).
	Nodes int
	// Topology shapes the inter-node latency add-ons: "flat" (uniform
	// interconnect, the default), "ring" (latency grows with hop distance)
	// or "star" (leaf↔leaf traffic pays one extra hub hop).
	Topology string
	// Seed drives all randomness; node i's engine seeds from
	// DeriveSeed(Seed, nodeEngineSalt+i).
	Seed uint64
	// MPI parameterises the transport. RemoteLatency (plus the smallest
	// topology add-on) is the lookahead floor and must be positive.
	MPI mpi.Options
	// NewNode builds node i's kernel on the given engine — the caller's
	// hook for chips, scheduler options, HPC classes, noise and tracers.
	NewNode func(node int, eng *sim.Engine) *sched.Kernel
	// OnNodeStop, when non-nil, is consulted when a node's engine is
	// stopped by an interrupt (a watchdog or context hook installed by the
	// caller) before its ranks and their sends are done: the returned
	// error aborts the run.
	// Nil treats any such stop as a generic interrupt error.
	OnNodeStop func(node int) error
	// FloorPacing, when true, disables the EOT/EIT lookahead and paces
	// windows with the clock+floor protocol alone (every window ≈ one
	// latency floor). The simulation is byte-identical either way — the
	// knob exists for the equivalence suite that proves it
	// (TestLookaheadFloorEquivalence) and for window-cadence comparisons.
	FloorPacing bool
}

// LookaheadError reports a lookahead floor too small to make progress: the
// conservative horizon is min(other clocks)+floor−1 (strict — a message can
// arrive at exactly clock+floor, so the window must stop one tick short),
// and with floor < 2ns that horizon never advances past the slowest clock:
// the simulation would deadlock (or livelock in zero-sized steps).
// It is returned by Finalize before any event runs.
type LookaheadError struct {
	Floor    sim.Time
	Topology string
}

func (e *LookaheadError) Error() string {
	return fmt.Sprintf("cluster: lookahead floor %v on %q topology is too small; "+
		"inter-node latency (mpi.Options.RemoteLatency plus topology add-ons) must be ≥ 2ns",
		e.Floor, e.Topology)
}

// InterruptError reports that a node's engine was stopped (watchdog,
// context cancellation) before its ranks completed.
type InterruptError struct {
	Node  int
	Cause error
}

func (e *InterruptError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("cluster: node %d interrupted: %v", e.Node, e.Cause)
	}
	return fmt.Sprintf("cluster: node %d interrupted with ranks pending", e.Node)
}

func (e *InterruptError) Unwrap() error { return e.Cause }

// xmsg is one cross-node message staged with its receiver: the arrival
// instant is stamped by the sender, and (arrival, srcNode, seq) is a total
// order — seq is the cluster's running count of routed messages, so two
// messages can only tie on (arrival, srcNode) if they are the same message.
type xmsg struct {
	arrival sim.Time
	srcNode int
	seq     uint64
	dst     *mpi.Rank
	src     int
	tag     int
	size    int64
}

// cmpXmsg orders staged messages by (arrival, srcNode, seq).
func cmpXmsg(a, b xmsg) int {
	if c := cmp.Compare(a.arrival, b.arrival); c != 0 {
		return c
	}
	if c := cmp.Compare(a.srcNode, b.srcNode); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// inject is one pooled target-side delivery: a pre-bound engine callback
// per object, so injecting a cross-node message allocates nothing in steady
// state (the per-event alloc budget is ≤ 0.01 and a 4-node exchange-heavy
// run injects tens of thousands of deliveries).
type inject struct {
	dst  *mpi.Rank
	src  int
	tag  int
	size int64
	next *inject
	fire func()
}

// injectPool is a per-node free list: drawn by stepNode for the node's
// own engine, refilled by that engine's deliveries.
type injectPool struct {
	free *inject
}

func (p *injectPool) draw(m xmsg) *inject {
	in := p.free
	if in == nil {
		in = &inject{}
		in.fire = func() {
			d, src, tag, size := in.dst, in.src, in.tag, in.size
			in.dst = nil
			in.next = p.free
			p.free = in
			d.Deliver(src, tag, size)
		}
	} else {
		p.free = in.next
		in.next = nil
	}
	in.dst = m.dst
	in.src = m.src
	in.tag = m.tag
	in.size = m.size
	return in
}

// Cluster is a set of simulated nodes advanced in event order under
// conservative lookahead.
type Cluster struct {
	Engines []*sim.Engine
	Kernels []*sched.Kernel
	World   *mpi.World

	cfg     Config
	horizon sim.Time
	floor   sim.Time

	pools   []injectPool
	staging [][]xmsg // per-node routed-but-not-yet-injected messages
	routed  uint64   // messages routed so far; stamps xmsg.seq

	// eot[i] is node i's coverage bound: a lower bound on the earliest
	// future instant of any event chain node i holds — its engine's
	// pending events, its staged arrivals and its unflushed deferred
	// sends. publishEOT recomputes it after each window, RouteMessage
	// lowers it to every arrival it stages, and a finished node holds
	// MaxTime. Node i's earliest input is min_j(eot[j] + reach[j][i]).
	eot []sim.Time
	// reach[j][i] is the cheapest nonempty forwarding path j→…→i,
	// computed once in Finalize. A hop j→i costs the smallest transport
	// latency over the rank pairs placed there (RemoteLatency plus the
	// topology add-on; MaxTime when no such pair exists), and closeReach
	// takes the min-plus closure over paths of hops (reach[i][i] is the
	// cheapest round trip). Fault-injected mpidelay windows only ever add
	// latency on top. A message chain originating at j cannot reach i
	// faster, so EIT_i = min_j (eot[j] + reach[j][i]) bounds every
	// possible arrival, including multi-hop forwards the senders' own
	// probes cannot see. Static is conservative: a finished node only
	// removes paths.
	reach [][]sim.Time
	// uniform is set when every off-diagonal reach entry equals reachOther
	// and every diagonal one reachSelf (a flat topology with ranks on
	// every node): the heap top then reads its EIT in O(1) (inputBound).
	uniform               bool
	reachOther, reachSelf sim.Time
	// windows/elided count executed lookahead windows per node and the
	// estimated floor-cadence windows the EOT/EIT horizon collapsed. They
	// depend on the pacing, not on the simulation, so they are reported
	// as diagnostics (ClusterInfo, BENCH) and must never feed a
	// determinism-pinned artifact.
	windows []int64
	elided  []int64

	// queue holds the live nodes, keyed by bound; Run steps its top.
	queue nodeHeap

	pending  []int // per-node unexited spawned ranks
	done     []bool
	ends     []sim.Time
	capped   []bool // node hit the horizon with ranks pending
	rankNode []int

	watched []map[*sched.Task]bool

	abortErr error

	finalized bool
}

// New builds the node engines and kernels. Ranks are placed with SpawnRank;
// call Finalize after the last spawn, then Run.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.NewNode == nil {
		return nil, fmt.Errorf("cluster: Config.NewNode is required")
	}
	if err := CheckTopology(cfg.Topology); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:     cfg,
		pools:   make([]injectPool, cfg.Nodes),
		staging: make([][]xmsg, cfg.Nodes),
		pending: make([]int, cfg.Nodes),
		queue:   newNodeHeap(cfg.Nodes),
		done:    make([]bool, cfg.Nodes),
		ends:    make([]sim.Time, cfg.Nodes),
		capped:  make([]bool, cfg.Nodes),
		watched: make([]map[*sched.Task]bool, cfg.Nodes),
		eot:     make([]sim.Time, cfg.Nodes),
		windows: make([]int64, cfg.Nodes),
		elided:  make([]int64, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		eng := sim.NewEngine(batch.DeriveSeed(cfg.Seed, nodeEngineSalt+uint64(i)))
		c.Engines = append(c.Engines, eng)
		c.Kernels = append(c.Kernels, cfg.NewNode(i, eng))
	}
	return c, nil
}

// Floor returns the lookahead floor (valid after Finalize).
func (c *Cluster) Floor() sim.Time { return c.floor }

// NewWorld creates the MPI world spanning the cluster: node 0's kernel
// anchors it, every further node is attached, and the cluster itself is
// installed as the cross-node router.
func (c *Cluster) NewWorld(size int, opts mpi.Options) *mpi.World {
	w := mpi.NewWorld(c.Kernels[0], size, opts)
	for i := 1; i < len(c.Kernels); i++ {
		w.AttachNode(i, c.Kernels[i])
	}
	w.SetRouter(c)
	c.World = w
	c.rankNode = make([]int, size)
	return w
}

// SpawnRank places rank i on the given node and registers it for
// completion tracking: a node is finished when its last spawned rank has
// exited and handed its last sends to the router (stopIfDone), which stops
// the node's engine mid-window.
func (c *Cluster) SpawnRank(i, node int, spec sched.TaskSpec, body func(*mpi.Rank)) *sched.Task {
	if c.World == nil {
		panic("cluster: SpawnRank before NewWorld")
	}
	if node < 0 || node >= len(c.Kernels) {
		panic(fmt.Sprintf("cluster: node %d out of range", node))
	}
	task := c.World.SpawnAt(i, c.Kernels[node], node, spec, body)
	c.rankNode[i] = node
	c.pending[node]++
	if c.watched[node] == nil {
		c.watched[node] = make(map[*sched.Task]bool)
		k := c.Kernels[node]
		prev := k.OnTaskExit
		k.OnTaskExit = func(t *sched.Task) {
			if prev != nil {
				prev(t)
			}
			if c.watched[node][t] {
				delete(c.watched[node], t)
				c.pending[node]--
				c.stopIfDone(node)
			}
		}
	}
	c.watched[node][task] = true
	return task
}

// stopIfDone stops node's engine once its last rank has exited and every
// cross-node send those ranks issued has been handed to the router. A
// rank's last Send routes from a zero-delay step the kernel schedules just
// before the rank exits, so stopping at the exit itself would strand it —
// and its receiver would wait until the run horizon.
func (c *Cluster) stopIfDone(node int) {
	if c.pending[node] == 0 && c.World.NodePendingSends(node) == 0 {
		c.Engines[node].Stop()
	}
}

// clusterRankSalt separates the per-rank workload RNG streams.
const clusterRankSalt = 0x2a8c_0000_0000_0000

func rankRNG(seed uint64, rank int) *sim.RNG {
	return sim.NewRNG(batch.DeriveSeed(seed, clusterRankSalt+uint64(rank)))
}

// Placement returns the cluster as a workloads.Placement, so the workload
// builders scale their jobs across its nodes. Ranks spawn through
// SpawnRank, and every rank draws jitter from its own stream derived from
// the run seed: the draw order is a function of the rank alone, so the
// workload is identical wherever the lookahead windows fall and however
// the node engines' steps interleave.
func (c *Cluster) Placement() workloads.Placement { return placement{c} }

type placement struct{ c *Cluster }

func (p placement) Nodes() int { return len(p.c.Kernels) }

func (p placement) NewWorld(size int) *mpi.World { return p.c.NewWorld(size, p.c.cfg.MPI) }

func (p placement) Spawn(i, node int, spec sched.TaskSpec, body func(*mpi.Rank)) *sched.Task {
	return p.c.SpawnRank(i, node, spec, body)
}

func (p placement) Streams(n int, _ bool) []*sim.RNG {
	rngs := make([]*sim.RNG, n)
	for i := range rngs {
		rngs[i] = rankRNG(p.c.cfg.Seed, i)
	}
	return rngs
}

// RankNode returns the node rank i was placed on.
func (c *Cluster) RankNode(i int) int { return c.rankNode[i] }

// Finalize applies the topology's per-rank-pair latency add-ons (placement
// must be complete) and computes the lookahead floor, rejecting a
// non-positive floor with *LookaheadError. It must be called once, after
// the last SpawnRank and before Run.
func (c *Cluster) Finalize() error {
	if c.World == nil {
		return fmt.Errorf("cluster: Finalize before NewWorld")
	}
	c.finalized = true
	nodes := len(c.Kernels)
	// reach starts as the one-hop latencies; closeReach closes it.
	c.reach = make([][]sim.Time, nodes)
	cells := make([]sim.Time, nodes*nodes)
	for i := range cells {
		cells[i] = sim.MaxTime // no rank pair: this direction can't carry traffic
	}
	for i := range c.reach {
		c.reach[i] = cells[i*nodes : (i+1)*nodes]
	}
	if nodes == 1 {
		c.floor = sim.MaxTime // no cross-node traffic; horizon-capped only
		c.closeReach()
		return nil
	}
	floor := sim.MaxTime
	cross := false
	size := c.World.Size()
	for s := 0; s < size; s++ {
		for d := 0; d < size; d++ {
			if s == d || c.rankNode[s] == c.rankNode[d] {
				continue
			}
			cross = true
			extra := topologyExtra(c.cfg.Topology, c.rankNode[s], c.rankNode[d],
				len(c.Kernels), c.cfg.MPI.RemoteLatency)
			if extra > 0 {
				c.World.SetPairExtraDelay(s, d, extra)
			}
			lat := c.cfg.MPI.RemoteLatency + extra
			if lat < floor {
				floor = lat
			}
			if lat < c.reach[c.rankNode[s]][c.rankNode[d]] {
				c.reach[c.rankNode[s]][c.rankNode[d]] = lat
			}
		}
	}
	if !cross {
		c.floor = sim.MaxTime
		c.closeReach()
		return nil
	}
	c.floor = floor
	if floor <= 1 {
		return &LookaheadError{Floor: floor, Topology: topologyName(c.cfg.Topology)}
	}
	c.closeReach()
	return nil
}

// closeReach replaces the one-hop latencies in reach, in place, with their
// min-plus path closure (Floyd–Warshall over saturating adds): reach[j][i]
// is the cheapest nonempty forwarding path j→…→i, the diagonal the
// cheapest round trip — MaxTime where no rank placement provides a path.
// Nodes-cubed once per run, before any window. The initial eot bounds are zero: every engine's
// first event fires at ≥ 0, so the first EIT reads are min_j reach[j][i]
// ≥ the floor, and the first windows open. It also records whether the
// closure is uniform, which lets inputBound skip its scan.
func (c *Cluster) closeReach() {
	n := len(c.Kernels)
	for m := 0; m < n; m++ {
		for i := 0; i < n; i++ {
			if c.reach[i][m] == sim.MaxTime {
				continue
			}
			for k := 0; k < n; k++ {
				if via := satAdd(c.reach[i][m], c.reach[m][k]); via < c.reach[i][k] {
					c.reach[i][k] = via
				}
			}
		}
	}
	c.reachSelf, c.reachOther = c.reach[0][0], sim.MaxTime
	if n > 1 {
		c.reachOther = c.reach[0][1]
	}
	c.uniform = true
	for j, row := range c.reach {
		for i, r := range row {
			want := c.reachOther
			if i == j {
				want = c.reachSelf
			}
			if r != want {
				c.uniform = false
			}
		}
	}
}

// topologyName normalises the default.
func topologyName(t string) string {
	if t == "" {
		return "flat"
	}
	return t
}

// topologyExtra returns the latency added on top of RemoteLatency for a
// message between nodes a and b. All shapes keep at least one zero-add-on
// pair, so the lookahead floor is RemoteLatency itself.
func topologyExtra(topology string, a, b, nodes int, remote sim.Time) sim.Time {
	switch topology {
	case "", "flat":
		return 0
	case "ring":
		d := a - b
		if d < 0 {
			d = -d
		}
		if rd := nodes - d; rd < d {
			d = rd
		}
		return sim.Time(d-1) * (remote / 2)
	case "star":
		if a == 0 || b == 0 {
			return 0 // hub traffic is direct
		}
		return remote // leaf↔leaf pays the extra hub hop
	default:
		panic(fmt.Sprintf("cluster: unknown topology %q", topology))
	}
}

// RouteMessage implements mpi.Router: it runs on the sender's engine at the
// virtual instant the send fired, with the arrival pre-stamped. The message
// is staged with its receiver at once, and the receiver's eot drops to the
// arrival, so the message's chain is covered from the instant it leaves
// the sender; under lookahead the receiver's heap key drops with it. A
// message for a finished node dies undelivered.
//
// The arrival must lie strictly after the receiver's clock. The
// conservative window guarantees it; an arrival at exactly the clock would
// make the injection order depend on where a window boundary fell.
func (c *Cluster) RouteMessage(srcNode, dstNode int, arrival sim.Time, dst *mpi.Rank, src, tag int, size int64) {
	if now := c.Engines[dstNode].Now(); arrival <= now {
		panic(fmt.Sprintf("cluster: message from node %d to node %d arrives at %v, not after the receiver's clock %v",
			srcNode, dstNode, arrival, now))
	}
	c.routed++
	if !c.done[dstNode] {
		c.staging[dstNode] = append(c.staging[dstNode], xmsg{arrival: arrival, srcNode: srcNode,
			seq: c.routed, dst: dst, src: src, tag: tag, size: size})
		if arrival < c.eot[dstNode] {
			c.eot[dstNode] = arrival
			if !c.cfg.FloorPacing {
				// Under floor pacing the key is the clock, which routing
				// does not move.
				c.queue.lower(dstNode, arrival)
			}
		}
	}
	c.stopIfDone(srcNode)
}

// inputBound returns node i's earliest input time: no message can arrive
// at node i before it. Node i must be the heap top. Under floor pacing it
// is the slowest live peer's clock plus the floor, and the heap keys are
// the clocks, so the slowest peer is one of the top's children. Under
// EOT/EIT pacing every event chain not yet injected is covered by some
// node's eot and pays at least the closure latency to reach i, so it is
// min_j (eot[j] + reach[j][i]); the j = i term covers i's own sends echoing
// back (cheapest round trip), and directions with no rank placement sit at
// MaxTime and never constrain. On a uniform closure that minimum is the
// smallest other eot — again the top's children — plus one latency, or
// i's own eot plus the round trip; otherwise it takes an O(N) scan.
func (c *Cluster) inputBound(i int) sim.Time {
	if c.cfg.FloorPacing {
		return satAdd(c.queue.minChild(), c.floor)
	}
	if c.uniform {
		return min(satAdd(c.queue.minChild(), c.reachOther), satAdd(c.eot[i], c.reachSelf))
	}
	eit := sim.MaxTime
	for j, e := range c.eot {
		if e := satAdd(e, c.reach[j][i]); e < eit {
			eit = e
		}
	}
	return eit
}

// windowFor is node i's safe window bound: one tick short of its input
// bound, capped at the run horizon.
//
// The bound is STRICT: a message may arrive at exactly the input bound.
// Running through that instant would fire the node's own events there
// before the late arrival is staged — an ordering that depends on where
// the window boundary fell. Stopping one tick short keeps every arrival
// strictly ahead of the window, so any window cut injects the identical
// Schedule sequence. Under EOT/EIT pacing the window is event-driven: when
// every peer's next event is milliseconds away, it spans milliseconds.
func (c *Cluster) windowFor(i int) sim.Time {
	if eit := c.inputBound(i); eit <= c.horizon {
		return eit - 1
	}
	return c.horizon
}

// satAdd is a+b saturating at MaxTime (finished nodes and traffic-free
// pairs carry MaxTime, and MaxTime plus any latency must not wrap
// negative).
func satAdd(a, b sim.Time) sim.Time {
	if s := a + b; s >= a {
		return s
	}
	return sim.MaxTime
}

// publishEOT recomputes node i's coverage bound after a window. It is the
// min of three terms:
//
//   - Engine.NextEventAt — every pending local event. This undercuts a
//     pure origin bound (message-caused events are counted even though
//     their chains are also covered upstream), which is merely
//     conservative.
//   - the earliest staged arrival.
//   - the node's clock when the transport reports unflushed deferred
//     sends — a belt-and-braces cross-check; between windows every rank
//     body is parked in a blocking call with its deferred-step queue
//     flushed, so any send the engine probe cannot see is scheduled and
//     already counted.
//
// The bound may fall below the previous one: a window can stage new
// events earlier than the old next event.
func (c *Cluster) publishEOT(i int) {
	bound := c.Engines[i].NextEventAt()
	for _, m := range c.staging[i] {
		if m.arrival < bound {
			bound = m.arrival
		}
	}
	if c.World.NodePendingSends(i) > 0 {
		if now := c.Engines[i].Now(); now < bound {
			bound = now
		}
	}
	c.eot[i] = bound
}

// afterRun classifies why a node's engine came back from Run: still going
// (false), finished its ranks and their sends, or interrupted — the latter
// aborts the whole cluster. It returns true when the node must not be
// stepped further.
func (c *Cluster) afterRun(i int) bool {
	if !c.Engines[i].Stopped() {
		return false
	}
	if c.pending[i] == 0 && c.World.NodePendingSends(i) == 0 {
		c.finish(i, false)
		return true
	}
	var cause error
	if c.cfg.OnNodeStop != nil {
		cause = c.cfg.OnNodeStop(i)
	}
	c.abortErr = &InterruptError{Node: i, Cause: cause}
	return true
}

// finish marks node i complete: its end is its engine's current instant
// (the last rank's exit, or the run horizon when capped), and it stops
// constraining the others. Messages still staged for it die undelivered.
func (c *Cluster) finish(i int, capped bool) {
	c.done[i] = true
	c.capped[i] = capped
	c.ends[i] = c.Engines[i].Now()
	c.eot[i] = sim.MaxTime
	c.staging[i] = nil
}

// stepNode advances node i by one lookahead window. It returns false when
// the node's window bound has not moved past its clock.
//
// The injection protocol is what makes window boundaries invisible: staged
// messages are sorted into the total order (arrival, srcNode, seq); for
// each distinct arrival T the engine first runs to exactly T−1 (so all
// local events before T hold their event sequence numbers), then the
// deliveries at T are scheduled in sorted order; finally the engine runs
// to the window bound. Wherever the windows are cut, this engine executes
// the identical Schedule-call sequence — so both pacings do too
// (TestLookaheadFloorEquivalence).
func (c *Cluster) stepNode(i int) bool {
	eng := c.Engines[i]
	now := eng.Now()
	h := c.windowFor(i)
	if h <= now {
		return false
	}
	st := c.staging[i]
	slices.SortFunc(st, cmpXmsg)
	pos := 0
	for pos < len(st) {
		t := st[pos].arrival
		if t > h {
			break
		}
		eng.Run(t - 1)
		if c.afterRun(i) {
			return true
		}
		for pos < len(st) && st[pos].arrival == t {
			in := c.pools[i].draw(st[pos])
			eng.Schedule(t, in.fire)
			pos++
		}
	}
	c.consumeStaged(i, pos)
	eng.Run(h)
	c.windows[i]++
	if !c.cfg.FloorPacing && c.floor < sim.MaxTime && h < c.horizon {
		// Estimate how many floor-cadence windows this one replaced: the
		// floor protocol advances the frontier by ≈ one floor per window,
		// so a span of k floors cost ≈ k windows. Horizon-capped windows
		// are excluded — once the peers are done, the floor protocol also
		// jumps to the horizon in one window, so counting that span would
		// claim elision the lookahead didn't earn.
		if est := int64((h - now) / c.floor); est > 1 {
			c.elided[i] += est - 1
		}
	}
	if c.afterRun(i) {
		return true
	}
	if eng.Now() >= c.horizon {
		c.finish(i, c.pending[i] > 0)
	} else if !c.cfg.FloorPacing {
		c.publishEOT(i)
	}
	return true
}

// Windows returns the total number of lookahead windows executed across
// all nodes (valid after Run). Under floor pacing this tracks the
// simulated span divided by the latency floor; under EOT/EIT lookahead it
// tracks the cluster's event structure instead.
func (c *Cluster) Windows() int64 {
	var n int64
	for _, w := range c.windows {
		n += w
	}
	return n
}

// WindowsElided returns the estimated number of floor-cadence windows the
// EOT/EIT horizon collapsed (valid after Run; 0 under FloorPacing). The
// count depends on where the pacing cuts the windows, so it is a
// diagnostic — never part of a determinism-pinned artifact.
func (c *Cluster) WindowsElided() int64 {
	var n int64
	for _, e := range c.elided {
		n += e
	}
	return n
}

// consumeStaged drops the first n staged messages (they were injected).
func (c *Cluster) consumeStaged(i, n int) {
	st := c.staging[i]
	c.staging[i] = st[:copy(st, st[n:])]
}

// Run advances the nodes in event order on the calling goroutine until
// every spawned rank has exited or the horizon passes, and returns the
// cluster end time — the latest node end. Each turn pops the live node
// with the smallest bound, runs it for one window and re-keys it, or drops
// it once it has finished. The error is non-nil only when a node was
// interrupted (watchdog or context hook); the caller still owns
// Settle/Shutdown.
func (c *Cluster) Run(horizon sim.Time) (sim.Time, error) {
	if !c.finalized {
		if err := c.Finalize(); err != nil {
			return 0, err
		}
	}
	if horizon <= 0 || horizon >= sim.MaxTime {
		horizon = 3600 * sim.Second
	}
	c.horizon = horizon
	for i := range c.Engines {
		if c.watched[i] == nil && !c.done[i] {
			// No rank was placed here: nothing can ever stop this node's
			// background daemons, and nothing can message it. It ends at 0
			// rather than running its noise to the horizon.
			c.finish(i, false)
		}
		if !c.done[i] {
			c.queue.push(i, c.bound(i))
		}
	}
	for c.queue.len() > 0 && c.abortErr == nil {
		i := c.queue.top()
		if checkPop != nil {
			checkPop(c, i)
		}
		if !c.stepNode(i) {
			c.stalled(i)
		}
		if c.done[i] {
			c.queue.remove(i)
		} else {
			c.queue.set(i, c.bound(i))
		}
	}
	var end sim.Time
	for i := range c.ends {
		if !c.done[i] {
			// Aborted mid-flight: report how far the node got.
			c.ends[i] = c.Engines[i].Now()
		}
		if c.ends[i] > end {
			end = c.ends[i]
		}
	}
	return end, c.abortErr
}

// checkPop, when non-nil, is called with each heap top before it is
// stepped. Tests set it to assert the loop's invariants.
var checkPop func(c *Cluster, top int)

// stalled panics when the heap top i cannot advance. While the bounds are
// sound that cannot happen: the top has the smallest bound b (eot, or the
// clock under floor pacing), so its input bound is ≥ b + floor ≥ its
// clock + 2, a window past its clock. With one goroutine nothing else
// could move it, so reaching this is a protocol bug.
func (c *Cluster) stalled(i int) {
	panic(fmt.Sprintf("cluster: no node can advance: node %d at %v has EIT %v",
		i, c.Engines[i].Now(), c.inputBound(i)))
}

// bound is the quantity the pacing orders nodes by: eot under EOT/EIT,
// the clock under floor pacing.
func (c *Cluster) bound(i int) sim.Time {
	if c.cfg.FloorPacing {
		return c.Engines[i].Now()
	}
	return c.eot[i]
}

// NodeEnd returns node i's end instant (after Run).
func (c *Cluster) NodeEnd(i int) sim.Time { return c.ends[i] }

// Capped reports whether node i hit the run horizon with ranks pending.
func (c *Cluster) Capped(i int) bool { return c.capped[i] }

// GVT returns the global virtual time after Run: the minimum over all node
// ends — every event before it has fired on every node.
func (c *Cluster) GVT() sim.Time {
	return slices.Min(c.ends)
}

// Settle closes the open busy-accounting stretches of every node, the step
// a single-node RunUntilWatchedExit performs on return. Call it after Run,
// before reading metrics or finishing trace recorders.
func (c *Cluster) Settle() {
	for _, k := range c.Kernels {
		k.Settle()
	}
}

// Shutdown releases every node's background goroutines. The cluster must
// not be used afterwards.
func (c *Cluster) Shutdown() {
	for _, k := range c.Kernels {
		k.Shutdown()
	}
}
