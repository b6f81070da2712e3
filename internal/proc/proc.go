// Package proc implements the coroutine harness that lets simulated
// programs (MPI ranks, OS daemons) be written as ordinary sequential Go
// functions while the simulation stays fully deterministic.
//
// Each Process body runs as a coroutine (iter.Pull, coro.go): control
// passes between the engine and the body in strict lock-step, by a direct
// coroutine switch that bypasses the Go scheduler, so at any instant at most
// one of them makes progress. The result behaves like hand-written
// coroutines — no data races, no scheduling nondeterminism — with none of
// the pain of writing workloads as explicit state machines.
//
// Bodies do not own their coroutines. A carrier is one pulled sequence that
// runs process bodies one after another; Start borrows a carrier from a
// bounded global free list and the carrier goes back to it when the body
// exits, panics or is killed. A process lifecycle therefore allocates only
// the Process itself, and a parked body costs nothing while the simulation
// runs elsewhere.
//
// Protocol: the engine calls Start to obtain the body's first request, then
// repeatedly answers requests via Resume, which returns the next request.
// When the body returns, Resume reports done=true. A process abandoned
// mid-request (e.g. the simulation horizon was reached) must be released
// with Kill, which unwinds the body and returns its carrier.
//
// The protocol is batch-friendly: a request is opaque, so a caller can make
// one Invoke carry an entire queue of deferred operations and have the
// engine drain it before replying — one coroutine switch for the whole
// batch. The sched.Env/mpi layers use exactly this (sched.batchReq and
// sched.waitReq) to collapse a rank's per-iteration message traffic, and
// its block/wake/re-check loops, into single exchanges.
package proc

import (
	"errors"
	"fmt"
)

// Request is an opaque service request from a process body to the engine.
// The kernel layer defines the concrete request types (compute bursts,
// blocking receives, ...). Hot request types should be pointers to reusable
// per-process scratch values: boxing a pointer into the interface does not
// allocate, while boxing a value struct does — see sched.Env.
type Request any

// errKilled unwinds a killed process body. It is deliberately unexported:
// bodies must not recover from it.
var errKilled = errors.New("proc: process killed")

// PanicError wraps a panic raised inside a process body so the engine can
// attribute it.
type PanicError struct {
	Process string
	Value   any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("proc: panic in process %q: %v", e.Process, e.Value)
}

// Process is one simulated sequential program.
type Process struct {
	id   int
	name string
	body func(*Handle)
	h    Handle

	// c is the carrier running the body, held from Start until the body
	// finishes. The fields below it are the exchange: the side that
	// switches writes them, the side that resumes reads them, and the
	// coroutine switch orders the two.
	c        *carrier
	req      Request // body → engine: the pending request
	reply    any     // engine → body: the answer to it
	panicVal any     // body → engine: the value the body panicked with

	started bool
	done    bool
	killed  bool
}

// New creates a process. The body does not start executing until Start is
// called.
func New(id int, name string, body func(*Handle)) *Process {
	if body == nil {
		panic("proc: nil body")
	}
	p := &Process{
		id:   id,
		name: name,
		body: body,
	}
	p.h.p = p
	return p
}

// ID returns the identifier the process was created with.
func (p *Process) ID() int { return p.id }

// Name returns the human-readable name the process was created with.
func (p *Process) Name() string { return p.name }

// Done reports whether the body has returned (or the process was killed).
func (p *Process) Done() bool { return p.done }

// Handle is the body-side endpoint. It is only valid inside the body
// function, for its lifetime.
type Handle struct {
	p *Process
}

// Process returns the process this handle belongs to.
func (h *Handle) Process() *Process { return h.p }

// Invoke submits a request to the engine and suspends the body until the
// engine answers via Resume. It returns the engine's reply.
//
// On a killed process Invoke panics with errKilled: after the switch back
// from Kill, and also at once when the body calls it again while unwinding
// (from a deferred cleanup), since no engine is left to answer and a
// suspended unwind would strand the carrier.
func (h *Handle) Invoke(req Request) any {
	p := h.p
	if p.killed {
		panic(errKilled)
	}
	p.req = req
	if !p.c.yield(false) || p.killed {
		panic(errKilled)
	}
	reply := p.reply
	p.reply = nil
	return reply
}

// Start launches the body and returns its first request.
// done is true if the body returned without issuing any request.
// Starting a process that was already killed is a no-op reporting done=true:
// a watchdog abort can Kill a whole kernel's process table, including
// processes whose bodies were created but never launched, and launching one
// of those afterwards would run a body the caller believes dead.
func (p *Process) Start() (req Request, done bool) {
	if p.killed {
		return nil, true
	}
	if p.started {
		panic("proc: Start called twice")
	}
	p.started = true
	p.c = getCarrier()
	p.c.p = p
	return p.next()
}

// Resume delivers the engine's reply to the body's pending Invoke and
// returns the body's next request. done is true when the body has returned,
// in which case req is nil and the process must not be resumed again.
func (p *Process) Resume(reply any) (req Request, done bool) {
	if !p.started {
		panic("proc: Resume before Start")
	}
	if p.done {
		panic(fmt.Sprintf("proc: Resume on finished process %q", p.name))
	}
	p.reply = reply
	return p.next()
}

// Kill releases a process that is suspended inside Invoke: the body resumes
// with the killed flag set, Invoke panics errKilled, and the body unwinds —
// running its deferred calls — before Kill returns. Kill is idempotent.
// Killing a process that already finished, or that never started, is a
// no-op beyond marking it done. A panic other than the unwind itself,
// raised by a deferred call on the way out, is discarded: the engine has
// already abandoned the process.
func (p *Process) Kill() {
	if p.killed || p.done {
		p.done = true
		return
	}
	p.killed = true
	p.done = true
	if p.started {
		p.c.next()
		p.panicVal = nil
		p.release()
	}
}

// next switches to the body until it issues its next request or finishes.
func (p *Process) next() (Request, bool) {
	if finished, _ := p.c.next(); !finished {
		req := p.req
		p.req = nil
		return req, false
	}
	p.done = true
	p.release()
	if v := p.panicVal; v != nil {
		p.panicVal = nil
		panic(&PanicError{Process: p.name, Value: v})
	}
	return nil, true
}

// release hands the finished body's carrier back to the free list.
func (p *Process) release() {
	c := p.c
	p.c = nil
	putCarrier(c)
}

// run executes the body on the carrier, recording a panic for the engine
// side instead of letting it escape the coroutine. The errKilled unwind is
// silent: Kill expects it.
func (p *Process) run() {
	defer func() {
		if v := recover(); v != nil {
			if err, ok := v.(error); ok && errors.Is(err, errKilled) {
				return
			}
			p.panicVal = v
		}
	}()
	p.body(&p.h)
}
