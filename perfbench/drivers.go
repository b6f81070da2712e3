package main

import (
	"time"

	"hpcsched"
	"hpcsched/internal/proc"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
	"hpcsched/internal/trace"
)

// driverReps is how many times each layer driver runs; it reports the
// median cost per operation.
const driverReps = 5

// driverCosts are the per-operation host costs of the layer drivers, in ns.
type driverCosts struct{ sim, proc, mpi, trace float64 }

// runDrivers times direct calls into the public functions of the sim,
// proc, mpi and trace layers, at the process's GOMAXPROCS.
func runDrivers(spans *spanLog) driverCosts {
	measure := func(name string, op func() float64) float64 {
		start := time.Now()
		v := make([]float64, driverReps)
		for i := range v {
			v[i] = op()
		}
		spans.add(name, 0, -1, start, time.Now())
		return median(v)
	}
	return driverCosts{
		sim:   measure("driver.sim", func() float64 { return driveSim(300_000) }),
		proc:  measure("driver.proc", func() float64 { return driveProc(20_000) }),
		mpi:   measure("driver.mpi", func() float64 { return driveMPI(5_000) }),
		trace: measure("driver.trace", func() float64 { return driveTrace(300_000) }),
	}
}

// driveSim returns host ns per event scheduled and fired over a mix of the
// engine's three tiers: four periodic 1 ms tickers in the ring, 16
// self-rescheduling timers with 10 µs–5 ms delays in the wheel, and 4
// timers beyond the wheel's ~17 s horizon in the heap.
func driveSim(n int) float64 {
	e := sim.NewEngine(1)
	fired := 0
	step := func() {
		if fired++; fired >= n {
			e.Stop()
		}
	}
	const tick = sim.Millisecond
	for cpu := 0; cpu < 4; cpu++ {
		var ev *sim.Event
		ev = e.SchedulePeriodic(tick+sim.Time(cpu)*10*sim.Microsecond, tick, func() {
			step()
			e.Reschedule(ev, e.Now()+tick)
		})
	}
	lcg := uint64(1)
	next := func(lo, span sim.Time) sim.Time {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lo + sim.Time(lcg>>33)%span
	}
	for i := 0; i < 16; i++ {
		var timer func()
		timer = func() {
			step()
			e.After(next(10*sim.Microsecond, 5*sim.Millisecond), timer)
		}
		e.After(next(10*sim.Microsecond, 5*sim.Millisecond), timer)
	}
	for i := 0; i < 4; i++ {
		var far func()
		far = func() {
			step()
			e.After(next(20*sim.Second, 10*sim.Second), far)
		}
		e.After(next(20*sim.Second, 10*sim.Second), far)
	}
	start := time.Now()
	e.Run(sim.MaxTime)
	return float64(time.Since(start).Nanoseconds()) / float64(fired)
}

// driveProc returns host ns per process round trip: proc.New, Start, then
// Resume until the body's n requests are answered.
func driveProc(n int) float64 {
	req := new(int)
	start := time.Now()
	p := proc.New(1, "driver", func(h *proc.Handle) {
		for i := 0; i < n; i++ {
			h.Invoke(req)
		}
	})
	_, done := p.Start()
	for !done {
		_, done = p.Resume(nil)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// driveMPI returns host ns per two-rank Send/Recv round trip on one
// silent kernel: the local message path with the scheduler and process
// handoffs it needs.
func driveMPI(n int) float64 {
	m := hpcsched.NewMachine(hpcsched.MachineConfig{Seed: 1, Noise: &hpcsched.SilentNoise})
	w := m.NewWorld(2)
	for i := 0; i < 2; i++ {
		i := i
		w.Spawn(i, hpcsched.TaskSpec{Affinity: 1 << uint(i)}, func(r *hpcsched.Rank) {
			for it := 0; it < n; it++ {
				if i == 0 {
					r.Send(1, 0, 64)
					r.Recv(1, 0)
				} else {
					r.Recv(0, 0)
					r.Send(0, 0, 64)
				}
			}
		})
	}
	start := time.Now()
	m.Run(3600 * hpcsched.Second)
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// driveTrace returns host ns per state change recorded into a Recorder
// that streams to the null sink.
func driveTrace(n int) float64 {
	m := hpcsched.NewMachine(hpcsched.MachineConfig{Seed: 1, Noise: &hpcsched.SilentNoise})
	w := m.NewWorld(4)
	var tasks []*sched.Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, w.Spawn(i, hpcsched.TaskSpec{}, func(*hpcsched.Rank) {}))
	}
	rec := trace.NewRecorderWithSink(trace.NullSink{})
	states := []sched.State{sched.StateRunning, sched.StateSleeping, sched.StateRunnable}
	start := time.Now()
	for i := 0; i < n; i++ {
		rec.TaskState(sim.Time(i)*sim.Microsecond, tasks[i%4], states[(i/4)%3], i%4)
	}
	el := time.Since(start)
	m.Run(hpcsched.Second)
	return float64(el.Nanoseconds()) / float64(n)
}
