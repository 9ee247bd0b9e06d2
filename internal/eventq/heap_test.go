package eventq

// Heap is the binary min-heap reference implementation: O(log n) schedule
// and pop, eager O(log n) cancel. The calendar queue is cross-checked
// against it.
type Heap struct {
	store
	heap []int32
}

// NewHeap returns an empty binary-heap queue.
func NewHeap() *Heap { return &Heap{} }

// Len implements Queue.
func (q *Heap) Len() int { return q.n }

// Schedule implements Queue.
func (q *Heap) Schedule(t float64, fn func()) Handle {
	slot := q.alloc(t, fn)
	i := int32(len(q.heap))
	q.heap = append(q.heap, slot)
	q.at(slot).pos = i
	q.up(i)
	return q.handle(slot)
}

// Cancel implements Queue.
func (q *Heap) Cancel(h Handle) bool {
	slot := q.resolve(h)
	if slot < 0 {
		return false
	}
	q.remove(q.at(slot).pos)
	q.release(slot)
	return true
}

// PeekTime implements Queue.
func (q *Heap) PeekTime() (float64, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.at(q.heap[0]).time, true
}

// Pop implements Queue.
func (q *Heap) Pop() (float64, func(), bool) {
	if len(q.heap) == 0 {
		return 0, nil, false
	}
	slot := q.heap[0]
	e := q.at(slot)
	t, fn := e.time, e.fn
	q.remove(0)
	q.release(slot)
	return t, fn, true
}

func (q *Heap) less(i, j int32) bool { return before(q.at(q.heap[i]), q.at(q.heap[j])) }

func (q *Heap) swap(i, j int32) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.at(q.heap[i]).pos = i
	q.at(q.heap[j]).pos = j
}

func (q *Heap) remove(i int32) {
	last := int32(len(q.heap)) - 1
	if i != last {
		q.swap(i, last)
	}
	q.heap = q.heap[:last]
	if i != last && i < last {
		if !q.down(i) {
			q.up(i)
		}
	}
}

func (q *Heap) up(i int32) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

// down sifts the element at i toward the leaves; it reports whether the
// element moved.
func (q *Heap) down(i int32) bool {
	start := i
	n := int32(len(q.heap))
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && q.less(right, left) {
			smallest = right
		}
		if !q.less(smallest, i) {
			break
		}
		q.swap(i, smallest)
		i = smallest
	}
	return i > start
}
