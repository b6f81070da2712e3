package proc

import (
	"iter"
	"sync"
)

// maxIdleCarriers bounds the carrier free list. Each idle carrier keeps a
// suspended goroutine and its stack, so the bound caps what a burst of
// concurrent processes leaves behind once it finishes. A 16-node cluster
// run keeps 192 processes live at once; the bound leaves room for several
// such runs side by side, so back-to-back runs take every carrier from the
// list instead of building new ones.
const maxIdleCarriers = 1024

// carrier is one iter.Pull coroutine that runs process bodies one after
// another. Its sequence yields false for every request of the body it
// carries and true once that body has finished; the engine side drives it
// through next, the body side switches back through yield.
type carrier struct {
	next  func() (finished, ok bool)
	stop  func()
	yield func(finished bool) bool
	p     *Process // the body to run; set by Start before the first next
}

func newCarrier() *carrier {
	c := &carrier{}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// loop is the carrier's sequence. Between bodies it rests in yield(true);
// stop makes that yield return false and ends the coroutine.
func (c *carrier) loop(yield func(bool) bool) {
	c.yield = yield
	for {
		c.p.run()
		if !yield(true) {
			return
		}
	}
}

// freeCarriers is the global free list. Processes driven from parallel
// goroutines (batch pool workers, each running whole replicas) share it,
// hence the mutex.
var freeCarriers struct {
	sync.Mutex
	idle []*carrier
}

func getCarrier() *carrier {
	freeCarriers.Lock()
	if n := len(freeCarriers.idle); n > 0 {
		c := freeCarriers.idle[n-1]
		freeCarriers.idle[n-1] = nil
		freeCarriers.idle = freeCarriers.idle[:n-1]
		freeCarriers.Unlock()
		return c
	}
	freeCarriers.Unlock()
	return newCarrier()
}

// putCarrier returns a carrier whose body has finished. One past the bound
// is stopped, which ends its goroutine.
func putCarrier(c *carrier) {
	c.p = nil
	freeCarriers.Lock()
	if len(freeCarriers.idle) < maxIdleCarriers {
		freeCarriers.idle = append(freeCarriers.idle, c)
		freeCarriers.Unlock()
		return
	}
	freeCarriers.Unlock()
	c.stop()
}
