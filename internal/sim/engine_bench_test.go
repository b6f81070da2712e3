package sim

import "testing"

// BenchmarkScheduleFire measures the core event cycle: acquire from the
// pool, insert into the timer wheel, pop, fire, recycle.
func BenchmarkScheduleFire(b *testing.B) {
	e := NewEngine(1)
	do := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now(), do)
		e.Step()
	}
}

// BenchmarkScheduleFireDepth measures the cycle with a deep queue, where
// sorted slot inserts and cascades dominate.
func BenchmarkScheduleFireDepth(b *testing.B) {
	e := NewEngine(1)
	do := func() {}
	for i := 0; i < 4096; i++ {
		e.Schedule(Time(1+i), do)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+Time(i%4096), do)
		e.Step()
	}
}

// BenchmarkPeriodicReschedule measures the re-arm path the per-CPU ticker
// uses.
func BenchmarkPeriodicReschedule(b *testing.B) {
	e := NewEngine(1)
	var ev *Event
	ev = e.Schedule(1, func() { e.Reschedule(ev, e.Now()+1) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkScheduleCancel measures the arm/disarm cycle the burst planner
// uses (planBurst/unplanBurst).
func BenchmarkScheduleCancel(b *testing.B) {
	e := NewEngine(1)
	do := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(e.After(1000, do))
	}
}
