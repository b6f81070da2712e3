package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"hpcsched/internal/experiments"
	"hpcsched/internal/sim"
	"hpcsched/internal/trace"
)

const (
	// setupReps is how often a timed run sets the workload up; setup_s is
	// the median.
	setupReps = 5
	// minPasses keeps the repeat check meaningful on workloads whose pass
	// is long compared with the measured seconds.
	minPasses = 3
)

// setUp prepares the workload reps times and returns the last bench with
// the host time of each set-up: input generation from the seed, loading
// the reference files and warm-up.
func setUp(ctx context.Context, o options, w workload, rep *report, reps int) (bench, []float64, error) {
	var b bench
	var times []float64
	for i := 0; i < reps; i++ {
		runtime.GC() // as before every pass, see loop
		start := time.Now()
		var err error
		if b, err = w.prepare(o); err != nil {
			return nil, nil, err
		}
		if err := b.warmUp(ctx, rep); err != nil {
			return nil, nil, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return b, times, nil
}

// loop runs untraced passes until the deadline (and at least minPasses),
// feeding every pass through the correctness gate.
func loop(ctx context.Context, b bench, g *gate, rep *report, d time.Duration) ([]passOut, error) {
	var passes []passOut
	deadline := time.Now().Add(d)
	for len(passes) < minPasses || time.Now().Before(deadline) {
		// Every pass starts from a collected heap, so the peak footprint
		// and the collector's work inside a pass do not depend on how much
		// of the previous pass's garbage happened to be left.
		runtime.GC()
		p, err := b.pass(ctx, 0, false)
		if err != nil {
			return nil, err
		}
		rep.attempted += len(p.units)
		rep.failed += g.check(p, rep)
		passes = append(passes, p)
	}
	return passes, nil
}

// nsPerEvent is the median over passes of pass host time per simulated
// event.
func nsPerEvent(passes []passOut) float64 {
	var v []float64
	for _, p := range passes {
		if ev := p.events(); ev > 0 {
			v = append(v, float64(p.wall.Nanoseconds())/float64(ev))
		}
	}
	return median(v)
}

// unitMillis lists the host times of the finished units whose time was
// observed.
func unitMillis(passes []passOut) []float64 {
	var v []float64
	for _, p := range passes {
		for _, u := range p.units {
			if u.err == "" && u.wall > 0 {
				v = append(v, ms(u.wall))
			}
		}
	}
	return v
}

func passMillis(passes []passOut) []float64 {
	var v []float64
	for _, p := range passes {
		v = append(v, ms(p.wall))
	}
	return v
}

// timedRun measures the end-to-end metrics with no tracing installed.
func timedRun(ctx context.Context, o options, w workload, rep *report) error {
	b, setups, err := setUp(ctx, o, w, rep, setupReps)
	if err != nil {
		return err
	}
	g := newGate(b)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	passes, err := loop(ctx, b, g, rep, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)

	var events uint64
	for _, p := range passes {
		events += p.events()
	}
	units := unitMillis(passes)
	rep.set("ns_per_event", nsPerEvent(passes))
	rep.set("unit_ms_p50", median(units))
	rep.set("setup_s", median(setups))
	rep.set("peak_rss_mb", peakRSSMB())
	rep.set("allocs_per_event", float64(m1.Mallocs-m0.Mallocs)/float64(max(events, 1)))

	rep.infof("samples passes=%d units=%d events=%d setups=%d", len(passes), len(units), events, len(setups))
	if len(units) >= 100 {
		rep.infof("%-28s %16.6g ms (n=%d units)", "unit_ms_p90", quantile(units, 0.9), len(units))
	} else {
		rep.infof("%-28s %16s ms (n=%d units; reported from 100 units)", "unit_ms_p90", "-", len(units))
	}
	rep.infof("%-28s %16.6g ratio (%d of %d units)", "fail_rate",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	if n, ok := rep.metrics["paper_checks"]; ok {
		rep.infof("%-28s %16.6g checks (of %.0f)", "paper_checks_failed", rep.metrics["paper_checks_failed"], n)
		rep.infof("%-28s %16.6g tolerances", "paper_err_mean", rep.metrics["paper_err_mean"])
	}
	return nil
}

// tracedRun measures the per-layer metrics: layer drivers, untraced and
// traced passes of the workload (the traced ones under per-unit hooks and
// a CPU profile), and the parallel-invariance check.
func tracedRun(ctx context.Context, o options, w workload, rep *report) error {
	spans := &spanLog{origin: time.Now()}

	start := time.Now()
	b, _, err := setUp(ctx, o, w, rep, 1)
	if err != nil {
		return err
	}
	spans.add("setup", 0, -1, start, time.Now())
	g := newGate(b)

	drv := runDrivers(spans)
	rep.set("sim.schedule_fire_ns", drv.sim)
	rep.set("proc.roundtrip_ns", drv.proc)
	rep.set("mpi.pingpong_ns", drv.mpi)
	rep.set("trace.record_ns", drv.trace)

	// Untraced and traced passes alternate, so drift in the host's speed
	// reaches both alike; the untraced ones are the reference for the
	// tracing overhead, the speedups and the attribution. Only traced
	// passes run under the CPU profile.
	var plain, traced []passOut
	samples := map[string]int64{}
	var gcCycles uint32
	var gcPause uint64
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for len(traced) < minPasses || time.Now().Before(deadline) {
		runtime.GC() // as in loop
		p, err := b.pass(ctx, 0, false)
		if err != nil {
			return err
		}
		rep.attempted += len(p.units)
		rep.failed += g.check(p, rep)
		plain = append(plain, p)
		spans.addPass(p, "pass.untraced", 0)

		var prof bytes.Buffer
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		p, err = b.pass(ctx, 0, true)
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		gcCycles += m1.NumGC - m0.NumGC
		gcPause += m1.PauseTotalNs - m0.PauseTotalNs
		if err := layerSamples(prof.Bytes(), samples); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		rep.attempted += len(p.units)
		rep.failed += g.check(p, rep)
		traced = append(traced, p)
		spans.addPass(p, "pass.traced", 0)
	}

	// Parallel invariance: the pool at one worker and the cluster at one
	// shard must reproduce the outputs exactly; the time ratio is the
	// layer's speedup.
	var batchSpeedup, shardSpeedup float64
	if w.workers == 0 || w.shards == 0 {
		start = time.Now()
		one, err := b.pass(ctx, 1, false)
		if err != nil {
			return err
		}
		rep.attempted += len(one.units)
		n := g.check(one, rep)
		rep.failed += n
		spans.addPass(one, "pass.invariance", spans.add("check.invariance", 0, -1, start, time.Now()))
		rep.infof("outputs at 1 vs %d workers/shards: %s", orCPUs(0), verdict(n == 0))
		speedup := ms(one.wall) / median(passMillis(plain))
		if w.workers == 0 {
			batchSpeedup = speedup
		} else {
			shardSpeedup = speedup
		}
	}
	rep.set("batch.speedup", batchSpeedup)
	rep.set("cluster.shard_speedup", shardSpeedup)

	var c counters
	for _, u := range traced[len(traced)-1].units {
		c.add(u.count)
	}
	var builds, runs []float64
	failedUnits := 0
	for _, p := range traced {
		for _, u := range p.units {
			switch {
			case u.err != "":
				failedUnits++
			case u.build > 0:
				builds = append(builds, ms(u.build))
				runs = append(runs, ms(u.wall-u.build))
			}
		}
	}
	if w.workers != 0 {
		failedUnits = 0 // not a pool workload
	}
	n := float64(len(traced))
	rep.set("experiments.build_ms", median(builds))
	rep.set("experiments.run_ms", median(runs))
	c.report(rep)
	rep.set("batch.failed", float64(failedUnits))
	rep.set("runtime.gc_cycles", float64(gcCycles)/n)
	rep.set("runtime.gc_pause_ms", float64(gcPause)/1e6/n)

	// Σ replica host time over workers × pass host time.
	var busy []float64
	for _, p := range plain {
		var sum time.Duration
		for _, u := range p.units {
			sum += u.wall
		}
		busy = append(busy, sum.Seconds()/(float64(orCPUs(w.workers))*p.wall.Seconds()))
	}
	rep.set("batch.busy_frac", median(busy))

	plainMs := median(passMillis(plain))
	rep.set("bench.trace_overhead_pct", 100*(median(passMillis(traced))/plainMs-1))

	// Attribution: each driver's cost per operation times the pass's count
	// of that operation, against the untraced pass host time of every pool
	// worker.
	base := plainMs * float64(orCPUs(w.workers))
	parts := []struct {
		layer string
		ns    float64
		count float64
	}{
		{"sim", drv.sim, float64(c.fired)},
		{"proc", drv.proc, float64(c.wakeups)},
		{"mpi", drv.mpi / 2, float64(c.msgs)},
		{"trace", drv.trace, float64(c.traceRecords)},
	}
	explained := 0.0
	var desc []string
	for _, p := range parts {
		cost := p.ns * p.count / 1e6
		explained += cost
		desc = append(desc, fmt.Sprintf("%s=%.1fms", p.layer, cost))
	}
	rep.set("bench.explained_pct", 100*explained/base)
	rep.set("bench.explained_base_ms", base)
	rep.infof("explained %s of %.1fms = untraced pass × %d workers (sim×fired, proc×wakeups, mpi×msgs/2, trace×records)",
		strings.Join(desc, " "), base, orCPUs(w.workers))

	shares, total := sharesOf(samples)
	for _, l := range layers {
		rep.set(l+".self_pct", shares[l])
	}
	rep.set("bench.profile_samples", float64(total))
	rep.infof("samples untraced_passes=%d traced_passes=%d profile_samples=%d", len(plain), len(traced), total)
	rep.info = append(rep.info, spans.summary()...)

	path, err := spans.write(o, w.name)
	if err != nil {
		return err
	}
	rep.infof("spans written to %s", path)
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "identical"
	}
	return "DIFFERENT"
}

// counters are one pass's layer counts, read from public accessors after
// each unit.
type counters struct {
	events, fired, scheduled, cancelled  uint64
	ticksElided, wakeups, migrations     int64
	stateChanges, hwprioChanges          uint64
	processes, msgs, bytes, remoteMsgs   int64
	traceRecords, windows, windowsElided int64
	faultActions                         int64
}

// countersOf reads a finished unit's layer counters.
func countersOf(r experiments.Result, h *hook) counters {
	c := counters{stateChanges: h.states.state, hwprioChanges: h.states.hwprio}
	for _, k := range kernelsOf(r) {
		st := k.Engine.Stats()
		c.fired += st.Fired
		c.scheduled += st.Scheduled
		c.cancelled += st.Cancelled
		c.ticksElided += k.TicksElided()
		tasks := k.Tasks()
		c.processes += int64(len(tasks))
		for _, t := range tasks {
			c.wakeups += t.WakeupCount
			c.migrations += t.Migrations
		}
	}
	c.events = c.fired + uint64(c.ticksElided)
	if r.World != nil {
		c.msgs = r.World.MsgCount()
		c.bytes = r.World.MsgBytes()
		c.remoteMsgs = r.World.RemoteMsgCount()
	}
	if r.Recorder != nil && r.Recorder.Retains() {
		rc := &recordCounter{}
		r.Recorder.Replay(rc)
		c.traceRecords = rc.n
		for _, tt := range r.Recorder.Traces() {
			c.traceRecords += int64(len(tt.Prios))
		}
	}
	if r.Cluster != nil {
		c.windows = r.Cluster.Windows
		c.windowsElided = r.Cluster.WindowsElided
	}
	if r.FaultTimeline != "" {
		c.faultActions = int64(strings.Count(r.FaultTimeline, "\n") + 1)
	}
	return c
}

func (c *counters) add(o counters) {
	c.events += o.events
	c.fired += o.fired
	c.scheduled += o.scheduled
	c.cancelled += o.cancelled
	c.ticksElided += o.ticksElided
	c.wakeups += o.wakeups
	c.migrations += o.migrations
	c.stateChanges += o.stateChanges
	c.hwprioChanges += o.hwprioChanges
	c.processes += o.processes
	c.msgs += o.msgs
	c.bytes += o.bytes
	c.remoteMsgs += o.remoteMsgs
	c.traceRecords += o.traceRecords
	c.windows += o.windows
	c.windowsElided += o.windowsElided
	c.faultActions += o.faultActions
}

func (c counters) report(rep *report) {
	rep.set("sim.events", float64(c.events))
	rep.set("sim.fired", float64(c.fired))
	rep.set("sim.scheduled", float64(c.scheduled))
	rep.set("sim.cancelled", float64(c.cancelled))
	rep.set("sched.ticks_elided", float64(c.ticksElided))
	rep.set("sched.wakeups", float64(c.wakeups))
	rep.set("sched.migrations", float64(c.migrations))
	rep.set("sched.state_changes", float64(c.stateChanges))
	rep.set("sched.hwprio_changes", float64(c.hwprioChanges))
	rep.set("proc.processes", float64(c.processes))
	rep.set("mpi.msgs", float64(c.msgs))
	rep.set("mpi.bytes", float64(c.bytes))
	rep.set("mpi.remote_msgs", float64(c.remoteMsgs))
	rep.set("trace.records", float64(c.traceRecords))
	rep.set("cluster.windows", float64(c.windows))
	rep.set("cluster.windows_elided", float64(c.windowsElided))
	epw := 0.0
	if c.windows > 0 {
		epw = float64(c.events) / float64(c.windows)
	}
	rep.set("cluster.events_per_window", epw)
	rep.set("faults.actions", float64(c.faultActions))
}

// recordCounter is a trace.Sink that counts the intervals replayed into it.
type recordCounter struct{ n int64 }

func (r *recordCounter) BeginTask(*trace.TaskTrace)                    {}
func (r *recordCounter) Interval(*trace.TaskTrace, trace.Interval)     { r.n++ }
func (r *recordCounter) PrioChange(*trace.TaskTrace, trace.PrioChange) {}
func (r *recordCounter) Finish(sim.Time)                               {}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linearly interpolated q-quantile of v (0 for no data).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
