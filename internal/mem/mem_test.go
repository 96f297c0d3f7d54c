package mem

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestMemoryZeroValue(t *testing.T) {
	var m Memory
	if got := m.Read64(0x1000); got != 0 {
		t.Errorf("untouched memory reads %#x, want 0", got)
	}
	m.Write64(0x1000, 42)
	if got := m.Read64(0x1000); got != 42 {
		t.Errorf("after write, read %d, want 42", got)
	}
}

func TestMemoryReadWriteWidths(t *testing.T) {
	m := NewMemory()
	m.Write(0x100, 8, 0x1122334455667788)
	if got := m.Read(0x100, 8); got != 0x1122334455667788 {
		t.Errorf("64-bit read = %#x", got)
	}
	if got := m.Read(0x100, 4); got != 0x55667788 {
		t.Errorf("32-bit read = %#x", got)
	}
	if got := m.Read(0x100, 2); got != 0x7788 {
		t.Errorf("16-bit read = %#x", got)
	}
	if got := m.Read(0x100, 1); got != 0x88 {
		t.Errorf("8-bit read = %#x", got)
	}
	if got := m.Read(0x104, 4); got != 0x11223344 {
		t.Errorf("upper half = %#x", got)
	}
}

func TestMemoryCrossPage(t *testing.T) {
	m := NewMemory()
	a := Addr(pageBytes - 4)
	m.Write(a, 8, 0xaabbccdd11223344)
	if got := m.Read(a, 8); got != 0xaabbccdd11223344 {
		t.Errorf("cross-page read = %#x", got)
	}
	if m.Footprint() != 2*pageBytes {
		t.Errorf("footprint = %d, want 2 pages", m.Footprint())
	}
}

// Property: read-after-write returns the written value masked to the
// access width, for arbitrary addresses and sizes.
func TestMemoryRoundTripProperty(t *testing.T) {
	m := NewMemory()
	f := func(addr uint32, v uint64, szSel uint8) bool {
		sizes := []int{1, 2, 4, 8}
		size := sizes[szSel%4]
		a := Addr(addr)
		m.Write(a, size, v)
		want := v
		if size < 8 {
			want = v & (1<<(8*uint(size)) - 1)
		}
		return m.Read(a, size) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLineAddr(t *testing.T) {
	if got := Addr(0).LineAddr(); got != 0 {
		t.Errorf("LineAddr(0) = %#x", got)
	}
	if got := Addr(63).LineAddr(); got != 0 {
		t.Errorf("LineAddr(63) = %#x", got)
	}
	if got := Addr(64).LineAddr(); got != 64 {
		t.Errorf("LineAddr(64) = %#x", got)
	}
	if got := Addr(0x12345).LineAddr(); got != 0x12340 {
		t.Errorf("LineAddr(0x12345) = %#x", got)
	}
}

func TestRequestCompleteOnce(t *testing.T) {
	n := 0
	r := &Request{Done: func(uint64) { n++ }}
	r.Complete(1)
	r.Complete(2)
	if n != 1 {
		t.Errorf("Done ran %d times, want 1", n)
	}
	// nil Done must not panic
	(&Request{}).Complete(3)
}

func TestDelayDevice(t *testing.T) {
	d := NewDelayDevice(7)
	if !d.Idle() {
		t.Error("fresh device must be idle")
	}
	var doneAt uint64
	n := 0
	d.Access(&Request{Addr: 0x10, Done: func(c uint64) { doneAt = c; n++ }})
	d.Access(&Request{Addr: 0x20, Done: func(uint64) { n++ }})
	if d.Idle() {
		t.Error("device with pending requests must not be idle")
	}
	for c := uint64(1); c <= 20 && n < 2; c++ {
		d.Tick(c)
	}
	if n != 2 {
		t.Fatalf("completed %d, want 2", n)
	}
	if doneAt != 7 {
		t.Errorf("first completion at %d, want 7", doneAt)
	}
	if !d.Idle() {
		t.Error("drained device must be idle")
	}
}

func TestDelayDeviceDeterministicTies(t *testing.T) {
	trace := func() []int {
		d := NewDelayDevice(3)
		var order []int
		for i := 0; i < 5; i++ {
			id := i
			d.Access(&Request{Addr: Addr(i), Done: func(uint64) { order = append(order, id) }})
		}
		for c := uint64(1); c <= 10; c++ {
			d.Tick(c)
		}
		return order
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tie-break nondeterministic: %v vs %v", a, b)
		}
	}
	// Same-cycle completions preserve submission order.
	for i, id := range a {
		if id != i {
			t.Errorf("completion order %v, want submission order", a)
			break
		}
	}
}

// TestMemoryOverlay pins the copy-on-write contract the oracle pre-runs
// rely on: an overlay reads its parent, keeps its own writes, and
// releasing it leaves the parent intact.
func TestMemoryOverlay(t *testing.T) {
	m := NewMemory()
	m.Write64(0x1000, 42)
	m.Write64(0x100000, 77)
	o := m.Overlay()
	if o.Read64(0x1000) != 42 || o.Read64(0x100000) != 77 {
		t.Error("overlay does not read through to its parent")
	}
	o.Write64(0x1000, 99)
	o.Write64(0x3000, 5) // a page the parent never wrote
	if o.Read64(0x1000) != 99 || o.Read64(0x1008) != 0 || o.Read64(0x3000) != 5 {
		t.Error("overlay lost its own writes")
	}
	if o.Read64(0x100000) != 77 {
		t.Error("overlay stopped reading a page it never wrote")
	}
	if m.Read64(0x1000) != 42 || m.Read64(0x3000) != 0 {
		t.Error("overlay writes leaked into the parent")
	}
	if o.Footprint() != 2*pageBytes {
		t.Errorf("overlay holds %d bytes, want the 2 pages it wrote", o.Footprint())
	}
	o.Release()
	if m.Read64(0x1000) != 42 || m.Read64(0x100000) != 77 || m.Footprint() != 2*pageBytes {
		t.Error("releasing the overlay changed the parent")
	}
}

// TestMemoryReleaseRecyclesZeroedPages checks that pages Release hands to
// the pool come back zeroed, so a new memory never sees an old one's data,
// and that a memory built after a release takes its pages from the pool
// instead of allocating them.
func TestMemoryReleaseRecyclesZeroedPages(t *testing.T) {
	const pages = 256
	touch := func(m *Memory) {
		for i := Addr(0); i < pages; i++ {
			m.Write64(i*pageBytes, ^uint64(0))
			m.Write64(i*pageBytes+pageBytes/2, ^uint64(0))
			m.Write64(i*pageBytes+pageBytes-8, ^uint64(0))
		}
	}
	old := NewMemory()
	touch(old)
	old.Release()
	if old.Footprint() != 0 || old.Read64(0) != 0 {
		t.Error("a released memory still holds data")
	}
	fresh := NewMemory()
	for i := Addr(0); i < pages; i++ {
		fresh.SetByte(i*pageBytes+1, 0)
		for off, b := range fresh.pages[i*pageBytes].data {
			if b != 0 {
				t.Fatalf("page %d of the new memory has byte %#x at offset %d", i, b, off)
			}
		}
	}
	fresh.Release()

	// The map and the Memory itself still allocate; the pages must not.
	// (The race detector's pool drops a quarter of what it is given.)
	allocs := testing.AllocsPerRun(5, func() {
		m := NewMemory()
		touch(m)
		m.Release()
	})
	if allocs > pages/2 {
		t.Errorf("a %d-page memory built after a release made %.0f allocations", pages, allocs)
	}
}

// TestMemoryPoolConcurrent builds, overlays and releases memories from
// several goroutines at once, as parallel sweep workers do. Each must see
// only its own writes: a fresh page is zero, and a released page never
// reaches two memories at once.
func TestMemoryPoolConcurrent(t *testing.T) {
	const pages = 16
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				v := uint64(g+1)<<32 | uint64(round)
				m := NewMemory()
				for i := Addr(0); i < pages; i++ {
					m.Write64(i*pageBytes, v)
					if got := m.Read64(i*pageBytes + 8); got != 0 {
						t.Errorf("goroutine %d: fresh page holds %#x", g, got)
						return
					}
				}
				o := m.Overlay()
				o.Write64(0, ^v)
				for i := Addr(0); i < pages; i++ {
					if got := m.Read64(i * pageBytes); got != v {
						t.Errorf("goroutine %d: read %#x, wrote %#x", g, got, v)
						return
					}
				}
				o.Release()
				m.Release()
			}
		}(g)
	}
	wg.Wait()
}
