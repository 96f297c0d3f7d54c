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

// TestMemoryAccessesMatchByteModel checks Read and Write of every width
// against a byte-by-byte model: at in-page offsets, at the last offset
// that stays in the page, and at every offset that crosses into the next
// page. The overlay case first reads every access through to its parent,
// whose first page holds a pattern and whose second was never written.
func TestMemoryAccessesMatchByteModel(t *testing.T) {
	const base = 5 * pageBytes
	offsets := []Addr{0, 1, 6, pageBytes/2 + 3}
	for off := Addr(pageBytes - 8); off < pageBytes; off++ {
		offsets = append(offsets, off)
	}
	parent := NewMemory()
	for a := Addr(base); a < base+pageBytes; a++ {
		parent.SetByte(a, byte(a*131+7))
	}
	for _, overlay := range []bool{false, true} {
		m, model := NewMemory(), map[Addr]byte{}
		if overlay {
			m = parent.Overlay()
			for a := Addr(base); a < base+pageBytes; a++ {
				model[a] = parent.ByteAt(a)
			}
		}
		want := func(a Addr, size int) uint64 {
			var v uint64
			for i := 0; i < size; i++ {
				v |= uint64(model[a+Addr(i)]) << (8 * i)
			}
			return v
		}
		for _, size := range []int{1, 2, 4, 8} {
			for _, off := range offsets {
				if got := m.Read(base+off, size); got != want(base+off, size) {
					t.Errorf("overlay=%v: Read(page+%d, %d) = %#x before any write, want %#x",
						overlay, off, size, got, want(base+off, size))
				}
			}
		}
		v := uint64(0x0123456789abcdef)
		for _, size := range []int{1, 2, 4, 8} {
			for _, off := range offsets {
				a := base + off
				v = v*6364136223846793005 + 1442695040888963407
				m.Write(a, size, v)
				for i := 0; i < size; i++ {
					model[a+Addr(i)] = byte(v >> (8 * i))
				}
				if got := m.Read(a, size); got != want(a, size) {
					t.Errorf("overlay=%v: Read(page+%d, %d) = %#x after a write, want %#x",
						overlay, off, size, got, want(a, size))
				}
				for b := a - 8; b < a+16; b++ {
					if got := m.ByteAt(b); got != model[b] {
						t.Fatalf("overlay=%v: Write(page+%d, %d) left byte %#x = %#x, want %#x",
							overlay, off, size, b, got, model[b])
					}
				}
			}
		}
		m.Release()
	}
	for a := Addr(base); a < base+2*pageBytes; a++ {
		want := byte(0)
		if a < base+pageBytes {
			want = byte(a*131 + 7)
		}
		if parent.ByteAt(a) != want {
			t.Fatalf("the overlay's writes reached the parent at %#x", a)
		}
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

// raceEnabled is set when the race detector is on (race_test.go). Its
// sync.Pool drops a quarter of what it is given, so allocation bounds on
// pooled buffers loosen under it.
var raceEnabled bool

// TestMemoryReleaseRecyclesZeroedPages checks that pages Release hands to
// the pool come back zeroed, so a new memory never sees an old one's data,
// and that a memory or overlay built after a release takes its pages and
// its grown page table from the pools instead of allocating them.
func TestMemoryReleaseRecyclesZeroedPages(t *testing.T) {
	const pages = 256
	touch := func(m *Memory, n Addr) {
		for i := Addr(0); i < n; i++ {
			m.Write64(i*pageBytes, ^uint64(0))
			m.Write64(i*pageBytes+pageBytes/2, ^uint64(0))
			m.Write64(i*pageBytes+pageBytes-8, ^uint64(0))
		}
	}
	old := NewMemory()
	touch(old, pages)
	old.Release()
	if old.Footprint() != 0 || old.Read64(0) != 0 {
		t.Error("a released memory still holds data")
	}
	fresh := NewMemory()
	if fresh.Footprint() != 0 {
		t.Errorf("a new memory starts with %d bytes", fresh.Footprint())
	}
	for i := Addr(0); i < pages; i++ {
		fresh.SetByte(i*pageBytes+1, 0)
		for off, b := range fresh.pages[i*pageBytes].data {
			if b != 0 {
				t.Fatalf("page %d of the new memory has byte %#x at offset %d", i, b, off)
			}
		}
		if got := fresh.Footprint(); got != int(i+1)*pageBytes {
			t.Fatalf("a new memory that wrote %d pages holds %d bytes", i+1, got)
		}
	}
	fresh.Release()
	if fresh.pages != nil {
		t.Error("a released memory still holds its page table")
	}

	// A memory and its overlay allocate as much at 256 pages as at 4:
	// the pages and the small and grown page tables come from the pools,
	// and only the two Memory structs are new. (The race detector's pool
	// drops a quarter of what it is given, so under it the pages and
	// tables that are dropped allocate again.)
	build := func(n Addr) float64 {
		return testing.AllocsPerRun(5, func() {
			m := NewMemory()
			touch(m, n)
			o := m.Overlay()
			touch(o, n)
			o.Release()
			m.Release()
		})
	}
	small, large := build(4), build(pages)
	if small > 2 && !raceEnabled {
		t.Errorf("a 4-page memory and its overlay built after a release made %.0f allocations, want its 2 Memory structs", small)
	}
	limit := small
	if raceEnabled {
		limit += pages
	}
	if large > limit {
		t.Errorf("a %d-page memory and its overlay built after a release made %.0f allocations, want at most %.0f (4 pages: %.0f)",
			pages, large, limit, small)
	}
}

// TestMemoryPoolConcurrent builds, overlays and releases memories from
// several goroutines at once, as parallel sweep workers do. Each must see
// only its own writes: a fresh page is zero, and a released page never
// reaches two memories at once. The memories hold 1 to 16 pages, so both
// small page tables and grown ones pass between goroutines.
func TestMemoryPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 64; round++ {
				v := uint64(g+1)<<32 | uint64(round)
				pages := Addr(1 + (g+round)%16)
				m := NewMemory()
				for i := Addr(0); i < pages; i++ {
					m.Write64(i*pageBytes, v)
					if got := m.Read64(i*pageBytes + 8); got != 0 {
						t.Errorf("goroutine %d: fresh page holds %#x", g, got)
						return
					}
				}
				if got := m.Footprint(); got != int(pages)*pageBytes {
					t.Errorf("goroutine %d: a memory that wrote %d pages holds %d bytes", g, pages, got)
					return
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
