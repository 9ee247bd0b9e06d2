// Package eventq provides the time-ordered event queue that drives the
// discrete-event simulator.
//
// The queue is a Brown-style calendar queue (Calendar) whose buckets give
// amortized O(1) schedule/pop under the near-future-biased event
// distributions a discrete-event simulator produces. It orders events by
// (Time, insertion sequence): events scheduled for the same instant fire in
// FIFO order, so pop order — and therefore every simulated trajectory — is a
// pure function of the schedule calls. A binary min-heap kept in the
// package's tests is the reference: a randomized cross-check property test
// requires the two to pop identically.
//
// Storage is a slab: events live in fixed-size chunks recycled through a
// free list, and Schedule returns a value Handle (slot + generation)
// instead of a pointer, so the steady-state schedule/pop/cancel cycle
// performs zero heap allocations. Generation counters make stale handles
// inert: canceling an event that already fired — even if its slot was
// recycled — is a no-op.
package eventq

import "math"

// Handle identifies a scheduled event. It is a value — storing, copying,
// and discarding handles never allocates. The zero Handle is "no event":
// canceling it is a no-op, so callers can track an optional pending event
// with a plain field.
type Handle struct {
	slot int32
	gen  uint32
}

// Zero reports whether the handle is the zero "no event" handle.
func (h Handle) Zero() bool { return h.gen == 0 }

// Queue is a time-ordered event queue. Implementations are not safe for
// concurrent use; the simulator is single-threaded by design (determinism),
// and any cross-goroutine interaction must happen outside the event loop.
type Queue interface {
	// Len returns the number of pending events.
	Len() int
	// Schedule enqueues fn to fire at time t and returns a cancel handle.
	Schedule(t float64, fn func()) Handle
	// Cancel removes a previously scheduled event, reporting whether it was
	// still pending. Canceling an event that already fired or was already
	// canceled (or the zero Handle) is a no-op returning false, even if the
	// event's storage has since been recycled.
	Cancel(h Handle) bool
	// PeekTime returns the earliest pending event's time, if any.
	PeekTime() (float64, bool)
	// Pop removes the earliest pending event and returns its time and
	// action; ok is false when the queue is empty.
	Pop() (t float64, fn func(), ok bool)
}

// event is one slab slot. pos is implementation state: the successor slot
// for Calendar's bucket chains, the heap index for the test-only Heap.
type event struct {
	time float64
	seq  uint64
	fn   func()
	gen  uint32
	live bool
	pos  int32
}

// store is the slab behind the calendar queue (and the test-only Heap):
// events live in fixed-size chunks (stable addresses — a chunk is never
// reallocated or moved) and freed slots recycle through a free list with a
// generation bump, so the steady-state schedule/pop cycle allocates nothing
// and stale handles never alias a recycled slot.
type store struct {
	chunks  [][]event
	free    []int32
	n       int
	nextSeq uint64
}

const chunkShift = 9 // 512 events per chunk

func (s *store) at(slot int32) *event {
	return &s.chunks[slot>>chunkShift][slot&(1<<chunkShift-1)]
}

// alloc takes a slot from the free list (or grows the slab by one chunk)
// and stamps it with the next insertion sequence number.
func (s *store) alloc(t float64, fn func()) int32 {
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.chunks)) << chunkShift
		s.chunks = append(s.chunks, make([]event, 1<<chunkShift))
		for i := int32(1<<chunkShift) - 1; i > 0; i-- {
			s.free = append(s.free, slot+i)
		}
	}
	e := s.at(slot)
	e.time = t
	e.seq = s.nextSeq
	e.fn = fn
	e.gen++
	e.live = true
	s.nextSeq++
	s.n++
	return slot
}

// release retires a slot back to the free list. The generation is bumped
// again on the next alloc, so a handle minted for this occupancy can never
// match a later one.
func (s *store) release(slot int32) {
	e := s.at(slot)
	e.fn = nil // drop the closure so the slab does not retain it
	e.live = false
	s.free = append(s.free, slot)
	s.n--
}

// resolve returns the slot named by a handle if that exact occupancy is
// still pending, or -1.
func (s *store) resolve(h Handle) int32 {
	if h.gen == 0 || int(h.slot>>chunkShift) >= len(s.chunks) {
		return -1
	}
	if e := s.at(h.slot); !e.live || e.gen != h.gen {
		return -1
	}
	return h.slot
}

func (s *store) handle(slot int32) Handle {
	return Handle{slot: slot, gen: s.at(slot).gen}
}

// before reports whether event a fires before event b: earlier time wins,
// equal times fall through to FIFO insertion order. < / > instead of float
// equality: same bits order the same way, and times that are neither above
// nor below fall through to the sequence tie-break.
func before(a, b *event) bool {
	if a.time < b.time {
		return true
	}
	if a.time > b.time {
		return false
	}
	return a.seq < b.seq
}

// Calendar is the calendar queue (R. Brown, CACM 1988): events hash into
// time buckets of width `width`, each bucket a list sorted by (time, seq),
// and a cursor walks the buckets in virtual-time order. With the width
// adapted to the event population (resize on 2× growth or shrink), both
// schedule and pop touch O(1) events in the common case. Pop order is
// identical to the heap's — the bucket layout only changes how the minimum
// is found, never which event is the minimum.
type Calendar struct {
	store
	buckets []int32 // head slot of each bucket's sorted chain, -1 when empty
	width   float64
	// cursor state: lastBucket is the bucket being drained, bucketTop the
	// exclusive upper time bound of its current lap window.
	lastBucket int
	bucketTop  float64
	resizeUp   int // occupancy that triggers doubling
	resizeDown int // occupancy that triggers halving
}

// NewCalendar returns an empty calendar queue.
func NewCalendar() *Calendar {
	c := &Calendar{}
	c.reset(minBuckets, 1.0, 0)
	return c
}

const minBuckets = 8

// reset installs a fresh empty bucket array and positions the cursor at
// virtual time start.
func (c *Calendar) reset(nb int, width, start float64) {
	if cap(c.buckets) >= nb {
		c.buckets = c.buckets[:nb]
	} else {
		c.buckets = make([]int32, nb)
	}
	for i := range c.buckets {
		c.buckets[i] = -1
	}
	c.width = width
	c.resizeUp = 2 * nb
	c.resizeDown = nb/2 - 2
	c.lastBucket = c.bucketIndex(start)
	c.bucketTop = (math.Floor(start/width) + 1) * width
}

// bucketIndex maps a time to its bucket: the floor of t/width, modulo the
// bucket count. The floor (not int64 truncation, which rounds toward zero)
// keeps the mapping consistent with the cursor's window arithmetic for
// negative times — bucket and window must agree on which epoch a time
// belongs to, or the lap scan skips events. Times far enough out that
// t/width overflows the int64 epoch counter are clamped — they land in one
// shared bucket and are still ordered correctly by the in-bucket sort and
// the direct-search fallback, just without calendar spreading.
func (c *Calendar) bucketIndex(t float64) int {
	epoch := math.Floor(t / c.width)
	if epoch >= math.MaxInt64 || epoch <= math.MinInt64 {
		return 0
	}
	i := int(int64(epoch) % int64(len(c.buckets)))
	if i < 0 {
		i += len(c.buckets)
	}
	return i
}

// Len implements Queue.
func (c *Calendar) Len() int { return c.n }

// Schedule implements Queue.
//
// Allocates nothing (TestSteadyStateZeroAlloc): bucket chain insert; resizes
// are amortized out of steady state.
func (c *Calendar) Schedule(t float64, fn func()) Handle {
	slot := c.alloc(t, fn)
	c.insert(slot)
	if c.n > c.resizeUp {
		c.resize(2 * len(c.buckets))
	}
	return c.handle(slot)
}

// insert links a slot into its bucket's (time, seq)-sorted chain. If the
// event lands before the cursor's current window the cursor rewinds, which
// preserves the pop invariant (every pending event has time >= bucketTop −
// width) at the cost of a longer next search.
func (c *Calendar) insert(slot int32) {
	e := c.at(slot)
	b := c.bucketIndex(e.time)
	prev := int32(-1)
	for cur := c.buckets[b]; cur >= 0; cur = c.at(cur).pos {
		if before(e, c.at(cur)) {
			break
		}
		prev = cur
	}
	if prev < 0 {
		e.pos = c.buckets[b]
		c.buckets[b] = slot
	} else {
		p := c.at(prev)
		e.pos = p.pos
		p.pos = slot
	}
	if e.time < c.bucketTop-c.width {
		c.lastBucket = b
		c.bucketTop = (math.Floor(e.time/c.width) + 1) * c.width
	}
}

// Cancel implements Queue.
//
// Allocates nothing (TestSteadyStateZeroAlloc): chain unlink + slot release,
// both over preallocated arrays.
func (c *Calendar) Cancel(h Handle) bool {
	slot := c.resolve(h)
	if slot < 0 {
		return false
	}
	c.unlink(slot)
	c.release(slot)
	if c.n < c.resizeDown {
		c.resize(len(c.buckets) / 2)
	}
	return true
}

// unlink removes a slot from its bucket chain.
func (c *Calendar) unlink(slot int32) {
	e := c.at(slot)
	b := c.bucketIndex(e.time)
	if c.buckets[b] == slot {
		c.buckets[b] = e.pos
		return
	}
	for cur := c.buckets[b]; cur >= 0; cur = c.at(cur).pos {
		if c.at(cur).pos == slot {
			c.at(cur).pos = e.pos
			return
		}
	}
}

// next advances the cursor to the earliest pending event and returns its
// slot, or -1 when empty. The walk visits each bucket once per lap,
// accepting a bucket's head only when it falls inside the bucket's current
// lap window; a fruitless full lap falls back to a direct minimum search
// (the event population is sparser than a year), which also re-anchors the
// cursor. The accepted event is the global minimum: chains are sorted, lap
// windows are disjoint and ascending, and the rewind in insert guarantees
// no pending event predates the current window.
func (c *Calendar) next() int32 {
	if c.n == 0 {
		return -1
	}
	nb := len(c.buckets)
	for scanned := 0; scanned < nb; scanned++ {
		head := c.buckets[c.lastBucket]
		if head >= 0 && c.at(head).time < c.bucketTop {
			return head
		}
		c.lastBucket++
		if c.lastBucket == nb {
			c.lastBucket = 0
		}
		c.bucketTop += c.width
	}
	// Direct search: minimum across all bucket heads.
	best := int32(-1)
	for _, head := range c.buckets {
		if head >= 0 && (best < 0 || before(c.at(head), c.at(best))) {
			best = head
		}
	}
	t := c.at(best).time
	c.lastBucket = c.bucketIndex(t)
	c.bucketTop = (math.Floor(t/c.width) + 1) * c.width
	return best
}

// PeekTime implements Queue.
func (c *Calendar) PeekTime() (float64, bool) {
	slot := c.next()
	if slot < 0 {
		return 0, false
	}
	return c.at(slot).time, true
}

// Pop implements Queue.
//
// Allocates nothing (TestSteadyStateZeroAlloc): cursor walk over buckets; no
// per-event boxing.
func (c *Calendar) Pop() (float64, func(), bool) {
	slot := c.next()
	if slot < 0 {
		return 0, nil, false
	}
	e := c.at(slot)
	t, fn := e.time, e.fn
	c.buckets[c.lastBucket] = e.pos
	c.release(slot)
	if c.n < c.resizeDown {
		c.resize(len(c.buckets) / 2)
	}
	return t, fn, true
}

// resize rebuilds the calendar with nb buckets and a width matched to the
// current population's time spread. Deterministic: the new width is a pure
// function of the pending events, and rehashing preserves each chain's
// (time, seq) sort. O(n), amortized against the 2× occupancy change that
// triggered it.
func (c *Calendar) resize(nb int) {
	if nb < minBuckets {
		nb = minBuckets
	}
	if nb == len(c.buckets) {
		return
	}
	// Collect pending slots before clearing the buckets.
	pending := make([]int32, 0, c.n)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, head := range c.buckets {
		for cur := head; cur >= 0; cur = c.at(cur).pos {
			pending = append(pending, cur)
			t := c.at(cur).time
			if t < lo {
				lo = t
			}
			if t > hi {
				hi = t
			}
		}
	}
	width := 1.0
	if len(pending) > 1 && hi > lo {
		// Three average inter-event gaps per bucket keeps chains short
		// without spreading a cluster across a whole lap.
		width = 3 * (hi - lo) / float64(len(pending))
	}
	start := c.bucketTop - c.width // preserve the cursor's position in time
	if len(pending) > 0 && lo < start {
		start = lo
	}
	c.reset(nb, width, start)
	for _, slot := range pending {
		c.insert(slot)
	}
}
