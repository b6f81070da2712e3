package proc

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestHandoffAllocFree pins the handoff's zero-allocation contract: a warm
// Invoke/Resume round trip allocates nothing on either side — request and
// reply travel through the Process's exchange fields, control through the
// carrier's coroutine switch.
func TestHandoffAllocFree(t *testing.T) {
	p := New(1, "hot", func(h *Handle) {
		for {
			if h.Invoke(nil) == "stop" {
				return
			}
		}
	})
	if _, done := p.Start(); done {
		t.Fatal("finished early")
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, done := p.Resume(nil); done {
			t.Fatal("finished mid-measurement")
		}
	})
	if allocs > 0.01 {
		t.Fatalf("handoff allocates %.4f objects, want 0", allocs)
	}
	p.Resume("stop")
}

// TestKillResumeRaceStress drives many processes with randomized
// Resume/Kill interleavings under the race detector, so carriers are
// recycled between bodies mid-schedule. It validates the coroutine
// switch's happens-before edges: every exchange-field access must be
// ordered by the switches alone.
func TestKillResumeRaceStress(t *testing.T) {
	const procs, rounds = 32, 200
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < rounds; round++ {
		alive := make([]*Process, 0, procs)
		for i := 0; i < procs; i++ {
			depth := rng.Intn(5)
			p := New(i, fmt.Sprintf("p%d", i), func(h *Handle) {
				for j := 0; j <= depth; j++ {
					h.Invoke(j)
				}
			})
			if _, done := p.Start(); !done {
				alive = append(alive, p)
			}
		}
		// Randomized schedule: resume or kill a random live process until
		// none remain.
		for len(alive) > 0 {
			i := rng.Intn(len(alive))
			p := alive[i]
			var done bool
			if rng.Intn(4) == 0 {
				p.Kill()
				done = true
			} else {
				_, done = p.Resume(nil)
			}
			if done {
				alive[i] = alive[len(alive)-1]
				alive = alive[:len(alive)-1]
			}
		}
	}
}

// TestConcurrentProcessPairs runs independent engine/process pairs on
// parallel goroutines: the lock-step protocol is per-process, so separate
// processes must not interfere through the shared carrier free list.
func TestConcurrentProcessPairs(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := New(g, "pair", func(h *Handle) {
				for i := 0; i < 500; i++ {
					if got := h.Invoke(i); got != i*3 {
						panic(fmt.Sprintf("reply %v, want %d", got, i*3))
					}
				}
			})
			req, done := p.Start()
			for !done {
				req, done = p.Resume(req.(int) * 3)
			}
		}(g)
	}
	wg.Wait()
}

// msgKind tags a message on the reference implementation's channel.
type msgKind uint8

const (
	msgRequest msgKind = iota // body → engine: service request
	msgReply                  // engine → body: answer to the pending request
	msgExit                   // body → engine: body returned
	msgPanic                  // body → engine: body panicked (val holds the value)
	msgKill                   // engine → body: unwind (Kill of a parked process)
)

// message is one exchange on the reference implementation's channel.
type message struct {
	kind msgKind
	req  Request
	val  any // reply (msgReply) or panic value (msgPanic)
}

// chanProcess is a minimal reference implementation of the Process
// protocol over a plain unbuffered channel and one goroutine per process.
// The equivalence test drives it and the real Process with identical
// scripts and compares every observable.
type chanProcess struct {
	ch   chan message
	done bool
}

func newChanProcess(body func(invoke func(Request) any)) *chanProcess {
	p := &chanProcess{ch: make(chan message)}
	go func() {
		defer func() {
			if v := recover(); v != nil {
				if v == "chan-killed" {
					return
				}
				p.ch <- message{kind: msgPanic, val: v}
				return
			}
			p.ch <- message{kind: msgExit}
		}()
		body(func(req Request) any {
			p.ch <- message{kind: msgRequest, req: req}
			m := <-p.ch
			if m.kind == msgKill {
				panic("chan-killed")
			}
			return m.val
		})
	}()
	return p
}

func (p *chanProcess) next() (Request, bool) {
	m := <-p.ch
	switch m.kind {
	case msgExit:
		p.done = true
		return nil, true
	case msgRequest:
		return m.req, false
	default:
		panic("unexpected message")
	}
}

func (p *chanProcess) resume(reply any) (Request, bool) {
	p.ch <- message{kind: msgReply, val: reply}
	return p.next()
}

func (p *chanProcess) kill() {
	if !p.done {
		p.done = true
		p.ch <- message{kind: msgKill}
	}
}

// TestChannelEquivalence mirrors the event store's pure-heap test at the proc
// layer: random request/reply/kill scripts must observe identical request
// streams, replies and completion points from the coroutine-based Process
// and the channel-based reference.
func TestChannelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(8) + 1
		replies := make([]int, n)
		for i := range replies {
			replies[i] = rng.Int()
		}
		killAt := -1
		if rng.Intn(3) == 0 {
			killAt = rng.Intn(n)
		}

		type obs struct {
			reqs    []int
			replies []any
			doneAt  int
		}
		runBody := func(invoke func(Request) any, got *obs) {
			for i := 0; i < n; i++ {
				got.replies = append(got.replies, invoke(i*7))
			}
		}

		var real, ref obs
		real.doneAt, ref.doneAt = -1, -1

		p := New(trial, "real", func(h *Handle) { runBody(h.Invoke, &real) })
		req, done := p.Start()
		for step := 0; !done; step++ {
			real.reqs = append(real.reqs, req.(int))
			if step == killAt {
				p.Kill()
				break
			}
			req, done = p.Resume(replies[step])
			if done {
				real.doneAt = step
			}
		}

		c := newChanProcess(func(invoke func(Request) any) { runBody(invoke, &ref) })
		req, done = c.next()
		for step := 0; !done; step++ {
			ref.reqs = append(ref.reqs, req.(int))
			if step == killAt {
				c.kill()
				break
			}
			req, done = c.resume(replies[step])
			if done {
				ref.doneAt = step
			}
		}

		if fmt.Sprint(real.reqs) != fmt.Sprint(ref.reqs) {
			t.Fatalf("trial %d: requests diverge: %v vs %v", trial, real.reqs, ref.reqs)
		}
		if real.doneAt != ref.doneAt {
			t.Fatalf("trial %d: completion diverges: %d vs %d", trial, real.doneAt, ref.doneAt)
		}
		// Replies observed by the killed bodies may be cut short at the
		// same point; compare the common prefix plus length.
		if killAt < 0 && fmt.Sprint(real.replies) != fmt.Sprint(ref.replies) {
			t.Fatalf("trial %d: replies diverge", trial)
		}
	}
}

func idleCarriers() int {
	freeCarriers.Lock()
	defer freeCarriers.Unlock()
	return len(freeCarriers.idle)
}

// warmCarriers makes sure at least n carriers sit on the free list, by
// running n processes side by side to their first request and then
// finishing them.
func warmCarriers(n int) {
	procs := make([]*Process, n)
	for i := range procs {
		procs[i] = New(i, "warm", oneRequestBody)
		procs[i].Start()
	}
	for _, p := range procs {
		p.Resume(nil)
	}
}

func oneRequestBody(h *Handle) { h.Invoke(nil) }

func threeRequestBody(h *Handle) {
	for i := 0; i < 3; i++ {
		h.Invoke(nil)
	}
}

// TestInvokeDuringKillUnwind is the regression test for a body whose
// deferred cleanup calls Invoke while Kill unwinds it. No engine is left to
// answer, so that Invoke must panic at once rather than suspend the body:
// a suspended unwind would strand its carrier (formerly its goroutine).
func TestInvokeDuringKillUnwind(t *testing.T) {
	const kills = 10
	warmCarriers(kills)
	idle0, g0 := idleCarriers(), runtime.NumGoroutine()

	cleanups, pastInvoke := 0, 0
	for i := 0; i < kills; i++ {
		p := New(i, "cleanup", func(h *Handle) {
			defer func() {
				cleanups++
				h.Invoke("cleanup request")
				pastInvoke++
			}()
			h.Invoke("work")
		})
		if _, done := p.Start(); done {
			t.Fatal("finished before its first request")
		}
		p.Kill()
	}
	if cleanups != kills || pastInvoke != 0 {
		t.Fatalf("cleanups ran %d times, %d continued past Invoke; want %d and 0",
			cleanups, pastInvoke, kills)
	}
	if idle := idleCarriers(); idle != idle0 {
		t.Fatalf("idle carriers %d after the kills, want %d", idle, idle0)
	}
	if g := runtime.NumGoroutine(); g > g0 {
		t.Fatalf("goroutines grew from %d to %d across %d kills", g0, g, kills)
	}
}

// TestCarrierHygiene reuses one carrier after each way a body can end and
// checks that the next body sees none of the previous body's reply, killed
// or panic state.
func TestCarrierHygiene(t *testing.T) {
	endings := []struct {
		name string
		end  func(t *testing.T) *carrier // the carrier the ended body used, nil if none
	}{
		{"exit", func(t *testing.T) *carrier {
			p := New(1, "exit", oneRequestBody)
			p.Start()
			c := p.c
			p.Resume("stale reply")
			return c
		}},
		{"panic", func(t *testing.T) *carrier {
			p := New(1, "panic", func(h *Handle) {
				h.Invoke(nil)
				panic("stale panic")
			})
			p.Start()
			c := p.c
			func() {
				defer func() {
					if _, ok := recover().(*PanicError); !ok {
						t.Fatal("body panic did not reach the engine as *PanicError")
					}
				}()
				p.Resume("stale reply")
			}()
			return c
		}},
		{"kill-in-invoke", func(t *testing.T) *carrier {
			p := New(1, "killed", func(h *Handle) {
				defer func() { panic("stale panic in the unwind") }()
				defer func() { h.Invoke("from the unwind") }()
				h.Invoke(nil)
			})
			p.Start()
			c := p.c
			p.Kill()
			return c
		}},
		{"kill-before-start", func(t *testing.T) *carrier {
			p := New(1, "unborn", oneRequestBody)
			p.Kill()
			if _, done := p.Start(); !done {
				t.Fatal("killed process started")
			}
			return nil
		}},
	}
	for _, e := range endings {
		t.Run(e.name, func(t *testing.T) {
			used := e.end(t)
			probe := New(2, "probe", func(h *Handle) {
				for i := 0; i < 2; i++ {
					if got := h.Invoke(i); got != i*10 {
						panic(fmt.Sprintf("reply %v, want %d", got, i*10))
					}
				}
			})
			req, done := probe.Start()
			if used != nil && probe.c != used {
				t.Fatal("probe did not reuse the ended body's carrier")
			}
			if probe.c.p != probe {
				t.Fatal("carrier does not carry the probe")
			}
			for i := 0; !done; i++ {
				if req != i {
					t.Fatalf("request %v, want %d", req, i)
				}
				req, done = probe.Resume(i * 10)
			}
			if probe.req != nil || probe.reply != nil || probe.panicVal != nil || probe.killed {
				t.Fatalf("probe left exchange state behind: %+v", probe)
			}
		})
	}
}

// TestIdleCarriersBounded finishes more concurrently live processes than
// the free list holds: the list stops at its bound and the surplus
// carriers are stopped, not parked.
func TestIdleCarriersBounded(t *testing.T) {
	const live = maxIdleCarriers + 16
	warmCarriers(live)
	if idle := idleCarriers(); idle != maxIdleCarriers {
		t.Fatalf("idle carriers = %d after %d finished processes, want the bound %d",
			idle, live, maxIdleCarriers)
	}
	g0 := runtime.NumGoroutine()
	warmCarriers(live) // takes every idle carrier, creates 16 more, stops 16
	if idle := idleCarriers(); idle != maxIdleCarriers {
		t.Fatalf("idle carriers = %d, want the bound %d", idle, maxIdleCarriers)
	}
	if g := runtime.NumGoroutine(); g > g0 {
		t.Fatalf("goroutines grew from %d to %d: surplus carriers not stopped", g0, g)
	}
}

// TestProcessLifecycleAllocs pins the cost of a whole process lifecycle on
// a warm free list: the Process itself is the only allocation.
func TestProcessLifecycleAllocs(t *testing.T) {
	exit := testing.AllocsPerRun(200, func() {
		p := New(1, "life", threeRequestBody)
		_, done := p.Start()
		for !done {
			_, done = p.Resume(nil)
		}
	})
	kill := testing.AllocsPerRun(200, func() {
		p := New(1, "life", threeRequestBody)
		p.Start()
		p.Kill()
	})
	if exit > 1 || kill > 1 {
		t.Fatalf("allocs per lifecycle: New+Start+Resume…exit %.2f, New+Start+Kill %.2f; want ≤1",
			exit, kill)
	}
}

// BenchmarkResumeRoundTrip measures one warm Invoke/Resume exchange: a
// switch into the body and a switch back.
func BenchmarkResumeRoundTrip(b *testing.B) {
	p := New(1, "bench", func(h *Handle) {
		for h.Invoke(nil) != "stop" {
		}
	})
	p.Start()
	b.ReportAllocs()
	for b.Loop() {
		p.Resume(nil)
	}
	p.Resume("stop")
}

// BenchmarkProcessLifecycle measures New, Start and three Resumes up to
// the body's exit, on a warm carrier free list.
func BenchmarkProcessLifecycle(b *testing.B) {
	warmCarriers(1)
	b.ReportAllocs()
	for b.Loop() {
		p := New(1, "bench", threeRequestBody)
		_, done := p.Start()
		for !done {
			_, done = p.Resume(nil)
		}
	}
}
