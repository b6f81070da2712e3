package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// levelOf returns the wheel level a pending event sits at.
func levelOf(ev *Event) int { return int(ev.slot) >> wheelBits }

// checkWheel asserts the wheel's placement invariant: every pending event
// sits at the level and slot that its deadline's XOR distance from the
// reference picks, slot lists are doubly linked and (at, seq)-sorted, and
// the bitmaps and counts match the lists.
func checkWheel(t *testing.T, w *timerWheel) {
	t.Helper()
	total := 0
	for l := range w.levels {
		lv := &w.levels[l]
		n := 0
		for s, head := range lv.slots {
			if occupied := lv.bits[s>>6]&(1<<uint(s&63)) != 0; occupied != (head != nil) {
				t.Fatalf("level %d slot %d: bitmap says occupied=%v", l, s, occupied)
			}
			var prev *Event
			for ev := head; ev != nil; ev = ev.next {
				if ev.prev != prev {
					t.Fatalf("level %d slot %d: broken back link", l, s)
				}
				if prev != nil && !eventLess(prev, ev) {
					t.Fatalf("level %d slot %d: list not (at, seq)-sorted", l, s)
				}
				if ev.at < w.time {
					t.Fatalf("event at %d pending behind the reference %d", ev.at, w.time)
				}
				want := levelFor(uint64(ev.at ^ w.time))
				if want != l || int(ev.at>>wheelShift(l))&wheelMask != s ||
					ev.slot != int32(l<<wheelBits|s) {
					t.Fatalf("event at %d (reference %d) in level %d slot %d (slot field %d), want level %d",
						ev.at, w.time, l, s, ev.slot, want)
				}
				prev = ev
				n++
			}
		}
		if n != lv.count {
			t.Fatalf("level %d holds %d events, count says %d", l, n, lv.count)
		}
		total += n
	}
	if total != w.count {
		t.Fatalf("wheel holds %d events, count says %d", total, w.count)
	}
}

// TestWheelRouting pins the level rule: an event lives at the lowest level
// where its deadline's slot bits differ from the reference, whatever the
// deadline — the top level covers every Time — and a deadline just across
// a high-bit boundary of the reference lands high however near it is.
func TestWheelRouting(t *testing.T) {
	e := NewEngine(1)
	for l := 0; l < wheelLevels; l++ {
		at := Time(1) << wheelShift(l)
		if ev := e.Schedule(at, func() {}); levelOf(ev) != l {
			t.Fatalf("deadline %d at level %d, want %d", at, levelOf(ev), l)
		}
	}
	if ev := e.Schedule(MaxTime, func() {}); levelOf(ev) != wheelLevels-1 {
		t.Fatalf("MaxTime at level %d, want %d", levelOf(ev), wheelLevels-1)
	}
	if e.Pending() != wheelLevels+1 {
		t.Fatalf("Pending = %d, want %d", e.Pending(), wheelLevels+1)
	}
	checkWheel(t, &e.wheel)

	// Two microseconds before a 2^34 ns (~17.2 s) boundary, an event four
	// microseconds out crosses it and sits at level 3.
	b := Time(1) << wheelShift(3)
	e = NewEngine(1)
	e.Schedule(b-2*Microsecond, func() {})
	e.Step()
	if ev := e.Schedule(b+2*Microsecond, func() {}); levelOf(ev) != 3 {
		t.Fatalf("boundary-crossing event at level %d, want 3", levelOf(ev))
	}
	if ev := e.Schedule(b-Microsecond, func() {}); levelOf(ev) != 0 {
		t.Fatalf("same-side event at level %d, want 0", levelOf(ev))
	}
	checkWheel(t, &e.wheel)
	if n := e.RunUntilIdle(); n != 2 || e.Now() != b+2*Microsecond {
		t.Fatalf("fired %d, Now = %d; want 2 and %d", n, e.Now(), b+2*Microsecond)
	}
}

// TestWheelZeroDelay exercises Schedule(Now()) from inside callbacks: the
// events land in the cursor slot of level 0 and fire in seq order at the
// same instant.
func TestWheelZeroDelay(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(1000, func() {
		order = append(order, 0)
		e.Schedule(1000, func() { order = append(order, 1) })
		e.Schedule(e.Now(), func() {
			order = append(order, 2)
			e.Schedule(e.Now(), func() { order = append(order, 3) })
		})
	})
	e.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("zero-delay firing order = %v", order)
		}
	}
	if e.Now() != 1000 {
		t.Fatalf("Now = %v, want 1000", e.Now())
	}
}

// TestWheelCascadeBoundaries schedules events straddling every level-span
// boundary (and the exact boundary instants themselves) up to MaxTime, then
// checks they fire in (at, seq) order with the clock advancing
// monotonically and every cascade keeping the placement invariant.
func TestWheelCascadeBoundaries(t *testing.T) {
	e := NewEngine(1)
	var ats []Time
	for l := 1; l < wheelLevels; l++ {
		s := Time(1) << wheelShift(l)
		ats = append(ats, s-1, s, s+1, 2*s-1, 2*s, 3*s+7)
	}
	ats = append(ats, 0, 1, MaxTime-1, MaxTime)
	var fired []Time
	for _, at := range ats {
		at := at
		e.Schedule(at, func() {
			fired = append(fired, at)
			checkWheel(t, &e.wheel)
		})
	}
	want := append([]Time(nil), ats...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if n := e.RunUntilIdle(); n != len(ats) {
		t.Fatalf("fired %d events, want %d", n, len(ats))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing order %v, want %v", fired, want)
		}
	}
}

// TestWheelRescheduleAcrossTiers re-arms one event back and forth between
// low and high levels, pending and mid-fire, and checks every hop lands at
// the level its deadline picks.
func TestWheelRescheduleAcrossTiers(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	ev := e.Schedule(10, func() { fired++ })
	if levelOf(ev) != 0 {
		t.Fatalf("event starts at level %d, want 0", levelOf(ev))
	}
	far := Time(1)<<wheelShift(5) + 5
	e.Reschedule(ev, far) // pending: level 0 → level 5
	if levelOf(ev) != 5 {
		t.Fatalf("after far reschedule: level %d, want 5", levelOf(ev))
	}
	e.Reschedule(ev, 20) // pending: level 5 → level 0
	if levelOf(ev) != 0 {
		t.Fatalf("after near reschedule: level %d, want 0", levelOf(ev))
	}
	checkWheel(t, &e.wheel)
	// Mid-fire re-arm to a high level, then drain through every cascade.
	hops := 0
	var periodic *Event
	periodic = e.Schedule(30, func() {
		hops++
		if hops == 1 {
			e.Reschedule(periodic, e.Now()+Time(1)<<wheelShift(4)+1)
			if levelOf(periodic) != 4 {
				t.Fatalf("mid-fire far re-arm at level %d, want 4", levelOf(periodic))
			}
			checkWheel(t, &e.wheel)
		}
	})
	e.RunUntilIdle()
	if fired != 1 || hops != 2 {
		t.Fatalf("fired=%d hops=%d, want 1 and 2", fired, hops)
	}
}

// TestWheelFarFutureOverflow checks that far-future events cascade down
// correctly as the clock walks up to them, and keep their seq order
// against a same-instant event armed much later at level 0.
func TestWheelFarFutureOverflow(t *testing.T) {
	e := NewEngine(1)
	var order []string
	far := Time(1)<<wheelShift(3) + 1000
	a := e.Schedule(far, func() { order = append(order, "far") })
	b := e.Schedule(far, func() { order = append(order, "far2") })
	e.Schedule(far-1, func() {
		order = append(order, "near")
		late := e.Schedule(far, func() { order = append(order, "late") })
		if levelOf(late) != 0 {
			t.Fatalf("late same-instant event at level %d, want 0", levelOf(late))
		}
		checkWheel(t, &e.wheel)
	})
	if levelOf(a) != 3 || levelOf(b) != 3 {
		t.Fatalf("far events at levels %d and %d, want 3", levelOf(a), levelOf(b))
	}
	// A ladder of intermediate events walks the reference time up to the
	// far deadline, cascading the far events down one level at a time.
	for step := Time(1000); step < far; step *= 2 {
		e.Schedule(step, func() { checkWheel(t, &e.wheel) })
	}
	e.RunUntilIdle()
	if fmt.Sprint(order) != "[near far far2 late]" {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != far {
		t.Fatalf("Now = %v, want %v", e.Now(), far)
	}
}

// refEvent is the model's view of one pending event in the pure-heap
// reference implementation.
type refEvent struct {
	id  int
	at  Time
	seq uint64
}

// ticker is a self-re-arming fixed-cadence event (a scheduler tick): it
// fires at offset + k·period while in cadence.
type ticker struct {
	offset, period Time
}

// TestWheelDeterminismVsPureHeap drives the engine with a randomized stream
// of Schedule/Reschedule/Cancel/Step operations and checks every firing
// against a reference model that keeps the pending events unordered and
// picks the (at, seq) minimum by scan — the exact contract a flat heap
// provides. Each run starts its clock at a different place: at zero, just
// below the 2^34 ns and 2^42 ns boundaries where the XOR rule sends
// microsecond-near deadlines to levels 3 and 4, and high enough for
// deadlines up to MaxTime-1. Deadlines are drawn across all levels. A set
// of fixed-cadence tickers re-arm themselves from their own callbacks,
// park far ahead, get woken back onto their grid, cancel themselves
// (which a firing event reports as not pending) or die; callbacks also
// cancel and reschedule other pending events and arm same-instant events
// on ticker grids before and after a ticker's re-arm.
func TestWheelDeterminismVsPureHeap(t *testing.T) {
	for i, start := range []Time{
		0,
		Time(1)<<wheelShift(3) - 3*Millisecond,
		Time(1)<<wheelShift(4) - 5*Millisecond,
		MaxTime - Time(1)<<wheelShift(4),
	} {
		t.Run(fmt.Sprint(start), func(t *testing.T) { wheelVsReference(t, start, int64(7+i)) })
	}
}

// wheelVsReference is one run of TestWheelDeterminismVsPureHeap, with the
// clock first moved to start.
func wheelVsReference(t *testing.T, start Time, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine(1)
	var (
		model    []refEvent // pending events, unordered
		handles  = map[int]*Event{}
		tickers  = map[int]ticker{}
		seq      uint64 // mirrors the engine's sequence counter
		nextID   int
		fired    int
		draining bool
	)
	if start > 0 {
		e.Schedule(start, func() {})
		seq++
		e.Step()
	}

	find := func(id int) int {
		for i := range model {
			if model[i].id == id {
				return i
			}
		}
		return -1
	}
	// arm records a Schedule or Reschedule of id in the model.
	arm := func(id int, at Time) {
		seq++
		if i := find(id); i >= 0 {
			model[i].at, model[i].seq = at, seq
		} else {
			model = append(model, refEvent{id: id, at: at, seq: seq})
		}
	}
	drop := func(id int) {
		if i := find(id); i >= 0 {
			model = append(model[:i], model[i+1:]...)
		}
	}
	randDelay := func() Time {
		now := e.Now()
		room := MaxTime - 1 - now
		var d Time
		switch rng.Intn(10) {
		case 0:
			d = 0
		case 1:
			d = Time(rng.Intn(1 << wheelGranuleBits))
		case 2:
			d = Time(rng.Intn(1 << wheelShift(1)))
		case 3:
			d = Time(rng.Intn(1 << wheelShift(2)))
		case 4: // around a level span
			d = Time(1)<<wheelShift(rng.Intn(wheelLevels-1)+1) - Time(rng.Intn(3))
		case 5: // just across the clock's next boundary of some level
			k := wheelShift(rng.Intn(wheelLevels-1) + 1)
			next := (uint64(now)>>k + 1) << k
			d = Time(min(next-uint64(now)+uint64(rng.Intn(3)), uint64(room)))
		case 6: // anywhere up to MaxTime-1
			if rng.Intn(8) == 0 {
				d = Time(rng.Int63n(int64(room) + 1))
			} else {
				d = Time(rng.Int63n(1 << wheelShift(3)))
			}
		default:
			d = Time(rng.Intn(1 << 20))
		}
		return min(d, room)
	}

	var callback func(id int) func()
	schedule := func(at Time) int {
		id := nextID
		nextID++
		handles[id] = e.Schedule(at, callback(id))
		arm(id, at)
		return id
	}
	reschedule := func(id int, at Time) {
		e.Reschedule(handles[id], at)
		arm(id, at)
	}
	cancel := func(id int) {
		if !e.Cancel(handles[id]) {
			t.Fatalf("cancel of pending event %d failed", id)
		}
		delete(handles, id)
		delete(tickers, id)
		drop(id)
	}
	// pick returns a random pending event other than not, or -1.
	pick := func(not int) int {
		if len(model) == 0 {
			return -1
		}
		if id := model[rng.Intn(len(model))].id; id != not {
			return id
		}
		return -1
	}
	// nextOnGrid is the first instant of tk's cadence strictly after now.
	nextOnGrid := func(tk ticker) Time {
		now := e.Now()
		if now < tk.offset {
			return tk.offset
		}
		return tk.offset + ((now-tk.offset)/tk.period+1)*tk.period
	}
	callback = func(id int) func() {
		return func() {
			best := 0
			for i := range model {
				if m := model[i]; m.at < model[best].at ||
					(m.at == model[best].at && m.seq < model[best].seq) {
					best = i
				}
			}
			if len(model) == 0 {
				t.Fatalf("engine fired event %d at %d with nothing pending in the reference", id, e.Now())
			}
			if model[best].id != id || model[best].at != e.Now() {
				t.Fatalf("engine fired event %d at %d; the reference says %+v", id, e.Now(), model[best])
			}
			model = append(model[:best], model[best+1:]...)
			fired++
			if draining {
				delete(handles, id)
				delete(tickers, id)
				return
			}
			self := handles[id]
			if tk, ok := tickers[id]; ok {
				next := e.Now() + tk.period
				if next > MaxTime-1 {
					next = MaxTime - 1
				}
				if rng.Intn(4) == 0 { // armed before the re-arm: fires first
					schedule(next)
				}
				switch r := rng.Intn(20); {
				case r < 14: // in cadence
					reschedule(id, next)
				case r < 16: // off cadence, within one period
					reschedule(id, e.Now()+min(Time(rng.Int63n(int64(tk.period))), MaxTime-1-e.Now()))
				case r < 18: // park several periods ahead, or anywhere
					reschedule(id, e.Now()+randDelay())
				case r < 19: // cancel self: a firing event is not pending
					if e.Cancel(self) {
						t.Fatalf("Cancel of firing event %d reported it pending", id)
					}
					delete(handles, id)
					delete(tickers, id)
				default: // die: no re-arm
					delete(handles, id)
					delete(tickers, id)
				}
				if rng.Intn(4) == 0 { // armed after the re-arm: fires after it
					schedule(next)
				}
				return
			}
			switch r := rng.Intn(12); {
			case r < 2: // wake a parked ticker onto its grid
				for _, m := range model {
					if tk, ok := tickers[m.id]; ok && m.at > nextOnGrid(tk) {
						reschedule(m.id, nextOnGrid(tk))
						break
					}
				}
			case r < 4: // reschedule another pending event
				if other := pick(id); other >= 0 {
					reschedule(other, e.Now()+randDelay())
				}
			case r < 5: // cancel another pending event
				if other := pick(id); other >= 0 {
					cancel(other)
				}
			case r < 6: // re-arm self
				reschedule(id, e.Now()+randDelay())
				return
			case r < 8: // same-instant noise on some ticker's grid
				if other := pick(id); other >= 0 {
					if tk, ok := tickers[other]; ok && nextOnGrid(tk) < MaxTime {
						schedule(nextOnGrid(tk))
					}
				}
			case r < 9:
				schedule(e.Now() + randDelay())
			}
			delete(handles, id)
		}
	}
	addTickers := func(n int) {
		period := Time(rng.Int63n(int64(Millisecond))) + Microsecond
		if rng.Intn(3) == 0 {
			period = Millisecond // the kernel's tick cadence
		}
		for cpu := 0; cpu < n; cpu++ {
			offset := e.Now() + period*Time(cpu)/Time(n)
			if offset > MaxTime-1 {
				return
			}
			tickers[schedule(offset)] = ticker{offset: offset, period: period}
		}
	}
	addTickers(4)

	for op := 0; op < 20000; op++ {
		if op%97 == 0 {
			checkWheel(t, &e.wheel)
		}
		if len(tickers) < 2 && rng.Intn(50) == 0 {
			addTickers(rng.Intn(4) + 1)
		}
		switch r := rng.Intn(10); {
		case r < 4:
			schedule(e.Now() + randDelay())
		case r < 6 && len(model) > 0:
			reschedule(model[rng.Intn(len(model))].id, e.Now()+randDelay())
		case r < 7 && len(model) > 0:
			cancel(model[rng.Intn(len(model))].id)
		default:
			had := len(model) > 0
			if e.Step() != had {
				t.Fatalf("Step() = %v with %d modeled events", !had, len(model))
			}
		}
		if e.Pending() != len(model) {
			t.Fatalf("Pending = %d, reference holds %d", e.Pending(), len(model))
		}
		// Probing between operations keeps the wheel's memoized minimum
		// live across the next inserts and removes.
		next := MaxTime
		for _, m := range model {
			next = min(next, m.at)
		}
		if got := e.NextEventAt(); got != next {
			t.Fatalf("NextEventAt = %d, reference says %d", got, next)
		}
	}
	checkWheel(t, &e.wheel)
	draining = true
	for len(model) > 0 {
		if !e.Step() {
			t.Fatal("engine drained before the model")
		}
	}
	if e.Step() {
		t.Fatal("engine still pending after the model drained")
	}
	if fired < 5000 {
		t.Fatalf("only %d events fired", fired)
	}
}

// TestWheelPendingCount cross-checks Pending against live scheduling
// activity across low and high levels.
func TestWheelPendingCount(t *testing.T) {
	e := NewEngine(1)
	evs := make([]*Event, 0, 64)
	for i := 0; i < 64; i++ {
		d := Time(i) * (1 << 16)
		if i%8 == 0 {
			d = Time(1)<<wheelShift(3) + Time(i)
		}
		evs = append(evs, e.After(d, func() {}))
	}
	if e.Pending() != 64 {
		t.Fatalf("Pending = %d, want 64", e.Pending())
	}
	for i := 0; i < 16; i++ {
		e.Cancel(evs[i*4])
	}
	if e.Pending() != 48 {
		t.Fatalf("Pending after cancels = %d, want 48", e.Pending())
	}
	n := e.RunUntilIdle()
	if n != 48 || e.Pending() != 0 {
		t.Fatalf("fired %d (want 48), Pending = %d", n, e.Pending())
	}
}
