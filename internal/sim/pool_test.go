package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestReschedulePeriodic drives one event through many periods: the
// Reschedule API must behave exactly like scheduling a fresh event each
// time (same firing times, same tie-break position), while reusing the
// same Event.
func TestReschedulePeriodic(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	var ev *Event
	tick := func() {
		fired = append(fired, e.Now())
		if len(fired) < 5 {
			e.Reschedule(ev, e.Now()+10)
		}
	}
	ev = e.Schedule(10, tick)
	first := ev
	e.RunUntilIdle()
	want := []Time{10, 20, 30, 40, 50}
	if len(fired) != len(want) {
		t.Fatalf("fired %d times, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
	if ev != first {
		t.Fatal("periodic event identity changed across Reschedule")
	}
}

// TestRescheduleOrdersAfterSameInstant: a re-armed event gets a fresh
// sequence number, so it fires after events already scheduled for the same
// instant — the same contract a fresh Schedule call has.
func TestRescheduleOrdersAfterSameInstant(t *testing.T) {
	e := NewEngine(1)
	var order []string
	rearmed := false
	var ev *Event
	ev = e.Schedule(10, func() {
		if !rearmed {
			rearmed = true
			e.Schedule(20, func() { order = append(order, "fresh") })
			e.Reschedule(ev, 20)
			return
		}
		order = append(order, "rearmed")
	})
	e.Schedule(20, func() { order = append(order, "prior") })
	e.RunUntilIdle()
	want := []string{"prior", "fresh", "rearmed"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestReschedulePendingEarlier moves a queued event to an earlier deadline,
// ahead of everything else pending.
func TestReschedulePendingEarlier(t *testing.T) {
	e := NewEngine(1)
	var order []int
	// Fill the store so the rescheduled event overtakes many others.
	for i := 0; i < 50; i++ {
		i := i
		e.Schedule(Time(100+i), func() { order = append(order, i) })
	}
	late := e.Schedule(1000, func() { order = append(order, -1) })
	e.Reschedule(late, 5) // now the earliest
	e.RunUntilIdle()
	if len(order) != 51 || order[0] != -1 {
		t.Fatalf("rescheduled-earlier event did not fire first: order[0]=%d", order[0])
	}
}

// TestRescheduleDeadPanics: a fired (and recycled) or cancelled event must
// not be re-armed.
func TestRescheduleDeadPanics(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(10, func() {})
	e.RunUntilIdle() // ev fired and was recycled
	defer func() {
		if recover() == nil {
			t.Fatal("Reschedule of a dead event did not panic")
		}
	}()
	e.Reschedule(ev, 20)
}

// TestEventPoolRecycling (white box): a fired event backs the next
// Schedule call instead of a fresh allocation.
func TestEventPoolRecycling(t *testing.T) {
	e := NewEngine(1)
	a := e.Schedule(10, func() {})
	e.RunUntilIdle()
	b := e.Schedule(20, func() {})
	if a != b {
		t.Fatal("fired event was not recycled by the next Schedule")
	}
	if e.Stats().Recycled == 0 {
		t.Fatal("Stats.Recycled not counted")
	}
	// Cancelled events recycle too.
	e.Cancel(b)
	c := e.Schedule(30, func() {})
	if c != b {
		t.Fatal("cancelled event was not recycled")
	}
	e.RunUntilIdle()
}

// TestPoolDoesNotRecycleRearmed: an event re-armed from its own callback
// must never reach the free list while queued.
func TestPoolDoesNotRecycleRearmed(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var ev *Event
	ev = e.Schedule(1, func() {
		count++
		if count < 3 {
			e.Reschedule(ev, e.Now()+1)
		}
	})
	// Interleave fresh events; none may alias the live periodic event.
	for i := Time(1); i <= 3; i++ {
		if x := e.Schedule(i, func() {}); x == ev {
			t.Fatal("live periodic event was handed out by the pool")
		}
		e.Run(i)
	}
	e.RunUntilIdle()
	if count != 3 {
		t.Fatalf("periodic event fired %d times, want 3", count)
	}
}

// TestHeapStressVsReference exercises the event store with a random mix of
// schedules, cancels and reschedules over deadlines on several wheel
// levels, checking the level placement after every operation and the
// firing sequence against a naive reference model sorted by (at, seq).
func TestHeapStressVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine(1)
		type ref struct {
			at  Time
			seq uint64
		}
		var got []ref
		model := map[*Event]*ref{} // pending events only
		var evs []*Event
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(10); {
			case r < 6 || len(evs) == 0: // schedule
				at := Time(rng.Intn(1000)) << (rng.Intn(3) * wheelBits)
				rec := &ref{}
				ev := e.Schedule(at, func() { got = append(got, *rec) })
				*rec = ref{at: at, seq: ev.seq}
				model[ev] = rec
				evs = append(evs, ev)
			case r < 8: // cancel a random event (may already be dead)
				ev := evs[rng.Intn(len(evs))]
				if _, live := model[ev]; !live {
					continue // dead handle: must never touch the engine
				}
				if !e.Cancel(ev) {
					t.Fatalf("trial %d: Cancel of pending event failed", trial)
				}
				delete(model, ev)
			default: // reschedule a random pending event
				ev := evs[rng.Intn(len(evs))]
				rec, live := model[ev]
				if !live {
					continue
				}
				at := Time(rng.Intn(1000)) << (rng.Intn(3) * wheelBits)
				e.Reschedule(ev, at)
				*rec = ref{at: at, seq: ev.seq} // closure sees the new key
			}
			checkWheel(t, &e.wheel)
		}
		want := make([]ref, 0, len(model))
		for _, rec := range model {
			want = append(want, *rec)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		e.RunUntilIdle()
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: firing %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestScheduleAllocFree: in steady state a Schedule→fire cycle performs no
// heap allocation (the acceptance bound is ≤1 per cycle; the pool achieves
// 0 once warm).
func TestScheduleAllocFree(t *testing.T) {
	e := NewEngine(1)
	do := func() {}
	// Warm the pool.
	for i := 0; i < 100; i++ {
		e.Schedule(e.Now(), do)
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now(), do)
		e.Step()
	})
	if allocs > 1 {
		t.Fatalf("Schedule+fire cycle allocates %.1f objects, want ≤1", allocs)
	}
}

// TestRescheduleAllocFree: the periodic re-arm path must not allocate at
// all.
func TestRescheduleAllocFree(t *testing.T) {
	e := NewEngine(1)
	var ev *Event
	ev = e.Schedule(1, func() { e.Reschedule(ev, e.Now()+1) })
	for i := 0; i < 100; i++ {
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() { e.Step() })
	if allocs > 0 {
		t.Fatalf("Reschedule cycle allocates %.2f objects, want 0", allocs)
	}
}

// TestAfterCancelAllocFree: schedule+cancel cycles recycle through the
// pool.
func TestAfterCancelAllocFree(t *testing.T) {
	e := NewEngine(1)
	do := func() {}
	for i := 0; i < 100; i++ {
		e.Cancel(e.After(10, do))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Cancel(e.After(10, do))
	})
	if allocs > 1 {
		t.Fatalf("After+Cancel cycle allocates %.1f objects, want ≤1", allocs)
	}
}
