package mem

// EventQueue is a min-heap of timed events carrying a value of type T. It
// retires events in one total order: by cycle, then by push order. Every
// timed device in the memory system (the delay device, the cache's pending
// hits, DRAM completions, both crossbar directions, the fault injector's
// held completions) keeps its events in one, so two runs of the same
// simulation pop the same events in the same order. The zero value is an
// empty queue.
//
// A device retires what is due with
//
//	for q.Due(cycle) {
//		at, v := q.Pop()
//		...
//	}
//
// Due inlines at that call site, so a tick with nothing due costs a length
// check and a compare.
type EventQueue[T any] struct {
	h   events[T]
	seq uint64 // push counter: equal cycles pop in push order
}

type event[T any] struct {
	cycle uint64
	seq   uint64
	v     T
}

type events[T any] []event[T]

func (h events[T]) less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}

// Emptied returns an empty queue on q's storage, leaving q empty too. The
// events q held are dropped, never fired; a device rebuilt from a released
// one starts its queues this way.
func (q *EventQueue[T]) Emptied() EventQueue[T] {
	clear(q.h)
	h := q.h[:0]
	*q = EventQueue[T]{}
	return EventQueue[T]{h: h}
}

// Len returns the number of queued events.
func (q *EventQueue[T]) Len() int { return len(q.h) }

// Due reports whether the earliest event is due at or before now.
func (q *EventQueue[T]) Due(now uint64) bool { return len(q.h) > 0 && q.h[0].cycle <= now }

// Next reports the cycle of the earliest event, or now+1 if that event is
// already due: the next cycle a device's Tick would retire it. ok=false
// means the queue is empty.
func (q *EventQueue[T]) Next(now uint64) (cycle uint64, ok bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	if c := q.h[0].cycle; c > now {
		return c, true
	}
	return now + 1, true
}

// Push queues v to fire at cycle, after every event already queued for
// the same cycle.
func (q *EventQueue[T]) Push(cycle uint64, v T) {
	q.seq++
	q.h = append(q.h, event[T]{cycle: cycle, seq: q.seq, v: v})
	h := q.h
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// Pop removes the earliest event and returns its cycle and value. The
// queue must not be empty. The vacated slot is zeroed, so the queue keeps
// no reference to a popped value.
func (q *EventQueue[T]) Pop() (cycle uint64, v T) {
	h := q.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event[T]{}
	h = h[:n]
	q.h = h
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top.cycle, top.v
}
