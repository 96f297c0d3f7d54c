// Package mem defines the memory-system building blocks shared by the
// cache, DRAM and interconnect models: addresses, requests, the device
// interface, and the flat functional backing memory.
//
// The simulator splits function from timing. All architectural data lives
// in one flat Memory per system and is read/written at the moment an
// instruction (or a register spill/fill) functionally executes. The cache,
// crossbar and DRAM models carry only timing: a Request flows down the
// hierarchy and its Done callback fires when the modeled access completes.
// Each core owns a private data region and a private reserved register
// region, so there is no cross-core sharing that would make the functional
// write-through visible early.
package mem

import (
	"maps"
	"sync"
)

// Addr is a byte address in the flat physical address space.
type Addr uint64

// LineBytes is the cache line size used throughout the system (64 B, eight
// 64-bit registers per line, as in the paper).
const LineBytes = 64

// LineAddr returns the address of the cache line containing a.
func (a Addr) LineAddr() Addr { return a &^ (LineBytes - 1) }

// Kind distinguishes reads from writes.
type Kind uint8

// Request kinds.
const (
	Read Kind = iota
	Write
)

// Request is one memory transaction flowing through the timing models.
//
// The issuer owns a request. It lends it to a device with Access and gets
// it back at the completion: once Done has been called, the device neither
// reads the request again nor keeps a reference to it, so the issuer may
// overwrite and reissue the same Request. Every issuer in the simulator
// sets a Done and recycles its requests from a free list: the core, the
// BSI, the crossbar, cache fills and writebacks, and the fault injector's
// storm fetches. A rejected request (Access returned false) was never
// lent: the device never completes it, and the issuer may retry it or
// reuse it at once.
type Request struct {
	Addr Addr
	Size int
	Kind Kind

	// Inst marks an instruction fetch (routed to the icache).
	Inst bool

	// RegisterFill marks a BSI register transaction. The dcache checks the
	// reserved register region instead; a miss on such a request must not
	// trigger a context switch.
	RegisterFill bool

	// NoCritical marks a metadata-only transaction (the BSI dummy-value
	// destination optimization): it occupies bandwidth but nobody waits
	// on its completion.
	NoCritical bool

	// PinSticky pins the touched register line until an Unpin request
	// releases it, independent of the per-register pin counter. The CSL
	// uses it for system-register lines, which stay cached for a
	// thread's whole lifetime (Section 5.3: a thread's general and
	// system register lines are pinned).
	PinSticky bool

	// Unpin releases a sticky pin (thread halt).
	Unpin bool

	// Done is invoked exactly once when the access completes, with the
	// cycle at which the data is available.
	Done func(cycle uint64)

	// Miss, if set, is invoked when a cache detects that this request
	// missed its tag array (primary or merged miss). The ViReC dcache
	// only raises it for data load misses outside the register region;
	// the core wires it to the context switching logic.
	Miss func(cycle uint64)
}

// Complete invokes Done if set, exactly once.
func (r *Request) Complete(cycle uint64) {
	if r.Done != nil {
		d := r.Done
		r.Done = nil
		d(cycle)
	}
}

// Device is a component that accepts memory requests and advances with the
// global clock. Access returns false when the device cannot accept the
// request this cycle (port conflict, full queue, no free MSHR); the caller
// retries on a later cycle. Devices follow the ownership rule on Request:
// nothing is read or kept after Complete, and nothing rejected completes.
type Device interface {
	Access(r *Request) bool
	Tick(cycle uint64)
}

// Memory is the flat functional backing store. It takes 4 KiB pages
// lazily from a pool of zeroed pages shared by every Memory, so sparse
// address spaces (per-core data regions, register regions) stay cheap and
// a released Memory's pages and page table serve the next one. The zero
// value is ready to use.
type Memory struct {
	pages map[Addr]*page
	// parent, when set, makes this Memory a copy-on-write overlay of it
	// (see Overlay).
	parent *Memory
}

const pageBytes = 4096

type page struct {
	data [pageBytes]byte
}

// pagePool holds zeroed pages. It is safe for concurrent use, so parallel
// sweep workers share it.
var pagePool = sync.Pool{New: func() any { return new(page) }}

// smallTable is the most pages a page table holds in Go's small-map form:
// one group, whose lookups compare keys without hashing. A Memory starts
// with a table of that form from smallTables and moves to a grown table
// from pageTables when it outgrows it, so a memory of a few pages never
// hashes its lookups into a large recycled table.
const smallTable = 8

// smallTables and pageTables hold empty small and grown page tables. A
// cleared map keeps its group or buckets, so a table one Memory filled
// serves the next without allocating again. A map is pointer-shaped, so
// Put allocates nothing.
var (
	smallTables = sync.Pool{New: func() any { return make(map[Addr]*page, smallTable) }}
	pageTables  = sync.Pool{New: func() any { return make(map[Addr]*page) }}
)

// NewMemory returns an empty flat memory.
func NewMemory() *Memory {
	return &Memory{}
}

// page returns the page holding a. Without create it returns nil for a
// page never written; an overlay then reads through to its parent. With
// create, a missing page is taken from the pool, and an overlay first
// copies its parent's page into it.
func (m *Memory) page(a Addr, create bool) *page {
	base := a &^ (pageBytes - 1)
	if p := m.pages[base]; p != nil {
		return p
	}
	var src *page
	if m.parent != nil {
		src = m.parent.page(a, false)
	}
	if !create {
		return src
	}
	if m.pages == nil {
		m.pages = smallTables.Get().(map[Addr]*page)
	} else if len(m.pages) == smallTable {
		grown := pageTables.Get().(map[Addr]*page)
		maps.Copy(grown, m.pages)
		clear(m.pages)
		smallTables.Put(m.pages)
		m.pages = grown
	}
	// A pooled page, allocated only when the pool is empty; Release returns it.
	p := pagePool.Get().(*page)
	if src != nil {
		*p = *src
	}
	m.pages[base] = p
	return p
}

// Release zeroes the memory's pages and returns them to the shared pool,
// then clears the page table and returns that to its pool too, leaving m
// empty. The table is cleared before it goes back because its entries
// point at pages the pool may already have handed to another Memory. Only
// m's owner may release it, and only once nothing (a core, a provider, a
// verifier) reads m any more. Releasing an overlay returns only the pages
// it copied, never its parent's.
func (m *Memory) Release() {
	for _, p := range m.pages {
		*p = page{}
		pagePool.Put(p)
	}
	if m.pages != nil {
		tables := &smallTables
		if len(m.pages) > smallTable {
			tables = &pageTables
		}
		clear(m.pages)
		tables.Put(m.pages)
	}
	m.pages = nil
	m.parent = nil
}

// Overlay returns a copy-on-write view of m. Reads fall through to m until
// the overlay first writes a page; that write copies the page (a pooled
// one) into the overlay, so m never sees the overlay's writes. The
// contract: nobody writes m while the overlay is in use, since the overlay
// would see such a write on every page it has not copied. Release the
// overlay when done with it.
func (m *Memory) Overlay() *Memory {
	return &Memory{parent: m}
}

// ByteAt returns the byte at address a (zero if never written).
func (m *Memory) ByteAt(a Addr) byte {
	p := m.page(a, false)
	if p == nil {
		return 0
	}
	return p.data[a%pageBytes]
}

// SetByte stores one byte at address a.
func (m *Memory) SetByte(a Addr, v byte) {
	m.page(a, true).data[a%pageBytes] = v
}

// Read returns size little-endian bytes at address a as a uint64.
// size must be 1, 2, 4 or 8. Accesses may cross page boundaries; one
// that stays inside a page looks the page up once.
func (m *Memory) Read(a Addr, size int) uint64 {
	var v uint64
	if int(a%pageBytes)+size > pageBytes {
		for i := 0; i < size; i++ {
			v |= uint64(m.ByteAt(a+Addr(i))) << (8 * uint(i))
		}
		return v
	}
	p := m.page(a, false)
	if p == nil {
		return 0
	}
	b := p.data[a%pageBytes:]
	for i := 0; i < size; i++ {
		v |= uint64(b[i]) << (8 * uint(i))
	}
	return v
}

// Write stores the low size bytes of v little-endian at address a.
func (m *Memory) Write(a Addr, size int, v uint64) {
	if int(a%pageBytes)+size > pageBytes {
		for i := 0; i < size; i++ {
			m.SetByte(a+Addr(i), byte(v>>(8*uint(i))))
		}
		return
	}
	b := m.page(a, true).data[a%pageBytes:]
	for i := 0; i < size; i++ {
		b[i] = byte(v >> (8 * uint(i)))
	}
}

// Read64 loads a 64-bit value.
func (m *Memory) Read64(a Addr) uint64 { return m.Read(a, 8) }

// Write64 stores a 64-bit value.
func (m *Memory) Write64(a Addr, v uint64) { m.Write(a, 8, v) }

// Footprint returns the number of touched bytes (allocated pages × 4 KiB),
// useful for sanity checks in tests.
func (m *Memory) Footprint() int { return len(m.pages) * pageBytes }
