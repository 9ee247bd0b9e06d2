package slab

import "testing"

type rec struct {
	a int
	b float64
	p *rec
}

func TestAllocGetFree(t *testing.T) {
	s := New[rec](0)
	h, p := s.Alloc()
	if h.Zero() {
		t.Fatal("Alloc returned zero handle")
	}
	p.a = 42
	if got := s.Get(h); got != p || got.a != 42 {
		t.Fatalf("Get = %p (a=%d), want %p (a=42)", got, got.a, p)
	}
	if !s.Live(h) {
		t.Fatal("Live = false for live handle")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	s.Free(h)
	if s.Live(h) {
		t.Fatal("Live = true after Free")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
}

func TestStaleHandlePanics(t *testing.T) {
	s := New[rec](0)
	h, _ := s.Alloc()
	s.Free(h)
	// The slot is recycled: the stale handle must still be dead.
	h2, _ := s.Alloc()
	if h2.Index() != h.Index() {
		t.Fatalf("expected slot reuse, got %d then %d", h.Index(), h2.Index())
	}
	assertPanics(t, "Get(stale)", func() { s.Get(h) })
	assertPanics(t, "Free(stale)", func() { s.Free(h) })
	assertPanics(t, "Get(zero)", func() { s.Get(Handle{}) })
	if s.Get(h2) == nil {
		t.Fatal("fresh handle broken by stale-handle checks")
	}
}

func TestStableAddresses(t *testing.T) {
	s := New[rec](4) // tiny hint: growth crosses chunk boundaries
	var ptrs []*rec
	var handles []Handle
	for i := 0; i < 3000; i++ {
		h, p := s.Alloc()
		p.a = i
		ptrs = append(ptrs, p)
		handles = append(handles, h)
	}
	for i, h := range handles {
		if got := s.Get(h); got != ptrs[i] || got.a != i {
			t.Fatalf("object %d moved or corrupted: %p vs %p (a=%d)", i, got, ptrs[i], got.a)
		}
	}
}

func TestRecyclingZeroesAndReuses(t *testing.T) {
	s := New[rec](0)
	h, p := s.Alloc()
	other := &rec{}
	p.a, p.p = 7, other
	s.Free(h)
	h2, p2 := s.Alloc()
	if p2.a != 0 || p2.p != nil {
		t.Fatalf("recycled slot not zeroed: %+v", *p2)
	}
	if h2 == h {
		t.Fatal("recycled handle equals freed handle (generation not bumped)")
	}
	cap0 := s.Cap()
	// Steady-state churn must not grow the slab.
	for i := 0; i < 10_000; i++ {
		hh, _ := s.Alloc()
		s.Free(hh)
	}
	if s.Cap() != cap0 {
		t.Fatalf("Cap grew under churn: %d -> %d", cap0, s.Cap())
	}
}

func TestHintSizesFirstChunk(t *testing.T) {
	s := New[rec](1000)
	for i := 0; i < 1000; i++ {
		s.Alloc()
	}
	if got := len(s.chunks); got != 1 {
		t.Fatalf("1000 allocs with hint 1000 used %d chunks, want 1", got)
	}
}

func TestZeroAllocSteadyState(t *testing.T) {
	s := New[rec](64)
	// Warm: grow to the working set, then churn.
	var hs []Handle
	for i := 0; i < 64; i++ {
		h, _ := s.Alloc()
		hs = append(hs, h)
	}
	for _, h := range hs {
		s.Free(h)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		h, p := s.Alloc()
		p.a = 1
		s.Get(h)
		s.Live(h)
		s.Free(h)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Alloc/Get/Live/Free allocates %v per op, want 0", allocs)
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	f()
}
