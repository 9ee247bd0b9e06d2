// Package slab provides typed object slabs: contiguous chunked storage
// with stable addresses, int32 index handles, free-list recycling, and
// generation counters that catch stale-handle use.
//
// The simulator's hot state (flow/coflow/job runtime records, event-queue
// nodes) used to be individually heap-allocated, which scattered the
// per-event scan sets across the heap and charged the GC for every object.
// A slab packs records of one type into fixed-size chunks: records
// allocated together sit together (the per-event completion scan walks
// memory in allocation order), chunks are never moved or reallocated (a *T
// obtained from a handle stays valid for the slab's lifetime), and freed
// slots recycle through a free list so steady-state alloc/free cycles
// never touch the Go heap.
//
// Handles, not pointers, are the identity a slab hands out. A Handle is a
// value (slot index + generation); resolving it through Get validates the
// generation, so a handle held across a Free — the classic use-after-free
// aliasing bug pooled allocators invite — panics deterministically instead
// of silently reading a recycled slot. The validation is two compares on
// an already-loaded cache line; it stays on in release builds.
package slab

import "fmt"

// Handle names one allocated slot of one slab. The zero Handle is invalid
// and resolves to nothing. Handles are values: copying or discarding them
// never allocates, and a Handle outliving its slot's occupancy (freed, or
// freed and recycled) is detected by generation mismatch.
type Handle struct {
	idx int32
	gen uint32
}

// Zero reports whether h is the zero "no object" handle.
func (h Handle) Zero() bool { return h.gen == 0 }

// Index returns the slot index as a dense small integer. Indices are
// stable for the lifetime of the occupancy and recycled after Free, which
// makes them usable as keys into parallel side arrays.
func (h Handle) Index() int32 { return h.idx }

func (h Handle) String() string { return fmt.Sprintf("slab.Handle(%d@%d)", h.idx, h.gen) }

// Slab is a typed slab allocator. The zero value is unusable; construct
// with New. Not safe for concurrent use.
type Slab[T any] struct {
	chunks    [][]T
	gens      []uint32 // per-slot generation; odd while live, even while free
	free      []int32
	n         int
	chunkSize int // power of two
	shift     uint
}

const defaultChunkSize = 512

// New returns a slab sized for about `hint` objects. The hint only
// pre-sizes the first chunk (rounded up to a power of two, so handle
// arithmetic is a shift and mask): a caller that knows its population —
// the simulator counts flows before it allocates any — gets one
// contiguous chunk, while growth beyond the hint adds chunks without
// moving existing objects.
func New[T any](hint int) *Slab[T] {
	size := defaultChunkSize
	for size < hint {
		size <<= 1
	}
	shift := uint(0)
	for 1<<shift != size {
		shift++
	}
	return &Slab[T]{chunkSize: size, shift: shift}
}

// Len returns the number of live objects.
func (s *Slab[T]) Len() int { return s.n }

// Cap returns the number of slots currently backed by storage.
func (s *Slab[T]) Cap() int { return len(s.chunks) * s.chunkSize }

// Alloc takes a free slot (recycling freed ones first, growing by one
// chunk otherwise), zeroes it, and returns its handle and a stable
// pointer. The pointer remains valid until the slot is freed; the handle
// remains resolvable until then and is inert afterwards.
func (s *Slab[T]) Alloc() (Handle, *T) {
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		idx = int32(len(s.chunks)) << s.shift
		s.chunks = append(s.chunks, make([]T, s.chunkSize))
		s.gens = append(s.gens, make([]uint32, s.chunkSize)...)
		for i := int32(s.chunkSize) - 1; i > 0; i-- {
			s.free = append(s.free, idx+i)
		}
	}
	var zero T
	p := &s.chunks[idx>>s.shift][idx&int32(s.chunkSize-1)]
	*p = zero
	s.gens[idx]++ // even -> odd: live
	s.n++
	return Handle{idx: idx, gen: s.gens[idx]}, p
}

// Get resolves a handle to its object. It panics on the zero handle, a
// foreign or out-of-range handle, and any handle whose slot has since been
// freed (or freed and recycled) — stale handles fail loudly and
// deterministically rather than aliasing another object's state.
//
// Allocates nothing (TestZeroAllocSteadyState): two compares and an index on
// the live path; the panic is outlined.
func (s *Slab[T]) Get(h Handle) *T {
	if h.gen == 0 || int(h.idx) >= len(s.gens) || s.gens[h.idx] != h.gen {
		badHandle("stale or invalid handle", h)
	}
	return &s.chunks[h.idx>>s.shift][h.idx&int32(s.chunkSize-1)]
}

// Live reports whether h still names a live occupancy (cheap, non-panicking
// form of Get for debug assertions).
//
// Allocates nothing (TestZeroAllocSteadyState): pure reads over the
// generation table.
func (s *Slab[T]) Live(h Handle) bool {
	return h.gen != 0 && int(h.idx) < len(s.gens) && s.gens[h.idx] == h.gen
}

// Free retires a handle's slot to the free list. The slot's generation
// advances, so the handle (and any copy of it) is dead from here on: Get
// panics, Live reports false, Free panics. The object is zeroed so the
// slab does not retain pointers held by the dead occupancy.
//
// Allocates nothing (TestZeroAllocSteadyState): recycles through the free
// list; steady-state Free never grows it.
func (s *Slab[T]) Free(h Handle) {
	if h.gen == 0 || int(h.idx) >= len(s.gens) || s.gens[h.idx] != h.gen {
		badHandle("double free or invalid handle", h)
	}
	var zero T
	s.chunks[h.idx>>s.shift][h.idx&int32(s.chunkSize-1)] = zero
	s.gens[h.idx]++ // odd -> even: free
	s.free = append(s.free, h.idx)
	s.n--
}

// badHandle reports a dead or foreign handle. Outlined from Get and Free
// (and pinned out of the inliner): formatting the message heap-allocates,
// and those methods must stay allocation-free on the live path the
// simulator executes — a panicking run is already over.
//
//go:noinline
func badHandle(msg string, h Handle) {
	panic(fmt.Sprintf("slab: %s %v", msg, h))
}
