package mem

import (
	"slices"
	"testing"
)

// TestEventQueueOrder pushes events with many equal cycles, interleaved
// with retiring what is due at a rising now, as a device does. The pops
// must come out as a stable sort of the pushes by cycle: by cycle, then by
// push order.
func TestEventQueueOrder(t *testing.T) {
	type ev struct {
		cycle uint64
		id    int
	}
	var q EventQueue[int]
	var pushed, popped []ev
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	for now := uint64(0); now < 400; now += next(3) {
		for k := next(6); k > 0; k-- {
			e := ev{cycle: now + next(4), id: len(pushed)}
			pushed = append(pushed, e)
			q.Push(e.cycle, e.id)
		}
		for q.Due(now) {
			at, id := q.Pop()
			if at > now {
				t.Fatalf("popped an event at cycle %d when now is %d", at, now)
			}
			popped = append(popped, ev{at, id})
		}
		if c, ok := q.Next(now); ok && c <= now {
			t.Fatalf("after retiring cycle %d, the next event is at %d", now, c)
		}
	}
	for q.Len() > 0 {
		at, id := q.Pop()
		popped = append(popped, ev{at, id})
	}
	want := slices.Clone(pushed)
	slices.SortStableFunc(want, func(a, b ev) int {
		switch {
		case a.cycle < b.cycle:
			return -1
		case a.cycle > b.cycle:
			return 1
		}
		return 0
	})
	if len(pushed) < 500 {
		t.Fatalf("only %d events pushed", len(pushed))
	}
	if !slices.Equal(popped, want) {
		t.Fatalf("pop order differs from a stable sort by cycle:\npopped %v\nwant   %v", popped, want)
	}
}

func TestEventQueueNext(t *testing.T) {
	var q EventQueue[string]
	if c, ok := q.Next(10); ok {
		t.Fatalf("empty queue reports an event at %d", c)
	}
	q.Push(15, "b")
	q.Push(12, "a")
	if c, ok := q.Next(10); !ok || c != 12 {
		t.Errorf("Next(10) = %d, %v; want 12, true", c, ok)
	}
	if q.Due(11) || !q.Due(12) {
		t.Errorf("Due(11) = %v, Due(12) = %v; want false, true", q.Due(11), q.Due(12))
	}
	// A head due at or before now is clamped to the next cycle.
	for _, now := range []uint64{12, 14} {
		if c, ok := q.Next(now); !ok || c != now+1 {
			t.Errorf("Next(%d) = %d, %v; want %d, true", now, c, ok, now+1)
		}
	}
	if at, v := q.Pop(); at != 12 || v != "a" {
		t.Errorf("Pop() = %d, %q; want 12, \"a\"", at, v)
	}
	if c, ok := q.Next(12); !ok || c != 15 {
		t.Errorf("Next(12) after a pop = %d, %v; want 15, true", c, ok)
	}
}

// TestEventQueuePopDropsReferences checks that Pop zeroes the slot it
// vacates, so a popped request is not kept alive by the backing array.
func TestEventQueuePopDropsReferences(t *testing.T) {
	var q EventQueue[*Request]
	for i := 0; i < 8; i++ {
		q.Push(uint64(8-i), &Request{Addr: Addr(i)})
	}
	for i := 0; i < 5; i++ {
		q.Pop()
	}
	if q.Len() != 3 {
		t.Fatalf("Len() = %d after 8 pushes and 5 pops, want 3", q.Len())
	}
	for i, e := range q.h[q.Len():cap(q.h)] {
		if e != (event[*Request]{}) {
			t.Errorf("slot %d past Len() holds %+v, want the zero event", q.Len()+i, e)
		}
	}
}

// TestEventQueueSteadyStateAllocs pins the queue's hot path: once the
// backing array has grown to the working depth, pushes and pops allocate
// nothing.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	var q EventQueue[*Request]
	r := &Request{}
	cycle := uint64(0)
	churn := func() {
		for i := uint64(0); i < 16; i++ {
			q.Push(cycle+i%5, r)
		}
		cycle++
		for q.Len() > 0 {
			q.Pop()
		}
	}
	churn() // warm up: grow the backing array
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Errorf("steady-state push/pop made %.1f allocations per run, want 0", allocs)
	}
}
