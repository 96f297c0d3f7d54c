package regfile

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/vrmu"
)

const regBase = mem.Addr(0x100000)

// harness bundles a provider's dependencies over an always-accepting
// fixed-latency device, so provider mechanics can be tested in isolation
// from the pipeline.
type harness struct {
	dev    *mem.DelayDevice
	memory *mem.Memory
	layout cpu.RegLayout
	cycle  uint64
}

// acquire runs a provider's Acquire in normal mode.
func acquire(p cpu.Provider, thread int, in *isa.Inst, need []isa.Reg) bool {
	ready, _ := p.Acquire(thread, in, need, false)
	return ready
}

// canSwitch runs a provider's CanSwitchTo in normal mode.
func canSwitch(p cpu.Provider, next int) bool {
	ready, _ := p.CanSwitchTo(next, false)
	return ready
}

func newHarness(latency uint64) *harness {
	return &harness{
		dev:    mem.NewDelayDevice(latency),
		memory: mem.NewMemory(),
		layout: cpu.RegLayout{Base: regBase},
	}
}

// tick advances provider and device n cycles.
func (h *harness) tick(p cpu.Provider, n int) {
	for i := 0; i < n; i++ {
		h.cycle++
		p.Tick(h.cycle)
		h.dev.Tick(h.cycle)
	}
}

// seed writes an initial register value to the backing region.
func (h *harness) seed(thread int, r isa.Reg, v uint64) {
	h.memory.Write64(h.layout.RegAddr(thread, r), v)
}

func TestBankedInitialContextLoad(t *testing.T) {
	h := newHarness(10)
	p := NewBanked(2, h.dev, h.memory, h.layout)
	h.seed(0, isa.X5, 777)
	p.ThreadStarted(0)
	if canSwitch(p, 0) {
		t.Error("switch must wait for the initial context load")
	}
	h.tick(p, 100)
	if !canSwitch(p, 0) {
		t.Fatal("context load never completed")
	}
	if got := p.ReadValue(0, isa.X5); got != 777 {
		t.Errorf("x5 = %d, want 777", got)
	}
}

func TestBankedIsolation(t *testing.T) {
	h := newHarness(1)
	p := NewBanked(2, h.dev, h.memory, h.layout)
	p.WriteValue(0, isa.X1, 10)
	p.WriteValue(1, isa.X1, 20)
	if p.ReadValue(0, isa.X1) != 10 || p.ReadValue(1, isa.X1) != 20 {
		t.Error("banks must be per-thread")
	}
	if p.ReadValue(0, isa.XZR) != 0 {
		t.Error("XZR reads zero")
	}
}

func TestViReCFillFromBackingStore(t *testing.T) {
	h := newHarness(10)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.LRC}, 2, h.dev, h.memory, h.layout)
	h.seed(0, isa.X3, 1234)
	in := &isa.Inst{Op: isa.ADDI, Rd: isa.X4, Rn: isa.X3, Imm: 1}
	need := []isa.Reg{isa.X3}
	if acquire(p, 0, in, need) {
		t.Fatal("first Acquire must miss (fill needed)")
	}
	for i := 0; i < 200 && !acquire(p, 0, in, need); i++ {
		h.tick(p, 1)
	}
	if !acquire(p, 0, in, need) {
		t.Fatal("fill never completed")
	}
	if got := p.ReadValue(0, isa.X3); got != 1234 {
		t.Errorf("filled x3 = %d, want 1234", got)
	}
	// The destination was allocated with a dummy; a commit write sticks.
	p.InstDecoded(0, 1, in)
	p.WriteValue(0, isa.X4, 99)
	p.InstCommitted(0, 1)
	if got := p.ReadValue(0, isa.X4); got != 99 {
		t.Errorf("x4 = %d, want 99", got)
	}
}

func TestViReCSpillRoundTrip(t *testing.T) {
	// Fill x0..x7 for thread 0 into an 8-entry RF, write values, then
	// force evictions by touching thread 1: the spilled values must be
	// recoverable from the backing store.
	h := newHarness(5)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.LRC}, 2, h.dev, h.memory, h.layout)
	for r := isa.Reg(0); r < 8; r++ {
		in := &isa.Inst{Op: isa.MOVZ, Rd: r, Imm: int64(r)}
		for i := 0; i < 100 && !acquire(p, 0, in, nil); i++ {
			h.tick(p, 1)
		}
		p.InstDecoded(0, uint64(r)+1, in)
		p.WriteValue(0, r, uint64(100+r))
		p.InstCommitted(0, uint64(r)+1)
	}
	p.OnSwitch(0, 1, 0)
	// Thread 1 acquires its own registers, evicting thread 0's.
	seq := uint64(100)
	for r := isa.Reg(0); r < 8; r++ {
		h.seed(1, r, uint64(200+r))
		in := &isa.Inst{Op: isa.ADDI, Rd: isa.X9, Rn: r, Imm: 0}
		need := []isa.Reg{r}
		for i := 0; i < 300 && !acquire(p, 1, in, need); i++ {
			h.tick(p, 1)
		}
		if !acquire(p, 1, in, need) {
			t.Fatalf("thread 1 fill of %s never completed", r)
		}
		seq++
		p.InstDecoded(1, seq, in)
		p.InstCommitted(1, seq)
	}
	h.tick(p, 100) // drain spills
	for r := isa.Reg(0); r < 8; r++ {
		if got := h.memory.Read64(h.layout.RegAddr(0, r)); got != uint64(100+r) {
			t.Errorf("spilled mem[t0.%s] = %d, want %d", r, got, 100+r)
		}
	}
}

func TestViReCBlockSwitchDuringFill(t *testing.T) {
	h := newHarness(50)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.LRC}, 2, h.dev, h.memory, h.layout)
	in := &isa.Inst{Op: isa.ADDI, Rd: isa.X4, Rn: isa.X3, Imm: 1}
	acquire(p, 0, in, []isa.Reg{isa.X3})
	h.tick(p, 2) // fill issued, outstanding
	if !p.BlockSwitch() {
		t.Error("switches must be masked while a fill is outstanding")
	}
	h.tick(p, 200)
	if p.BlockSwitch() {
		t.Error("mask must clear once the BSI drains")
	}
}

func TestViReCSysregPingPong(t *testing.T) {
	h := newHarness(10)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.LRC}, 4, h.dev, h.memory, h.layout)
	// First switch target: needs a sysreg load.
	if canSwitch(p, 0) {
		t.Error("first switch must wait for system registers")
	}
	h.tick(p, 100)
	if !canSwitch(p, 0) {
		t.Fatal("sysreg load never completed")
	}
	p.OnSwitch(-1, 0, 1)
	// The successor (thread 1) is prefetched during execution.
	h.tick(p, 100)
	if !canSwitch(p, 1) {
		t.Error("next thread's sysregs must be prefetched by the ping-pong buffer")
	}
}

func TestViReCHaltReleasesState(t *testing.T) {
	h := newHarness(5)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.LRC}, 2, h.dev, h.memory, h.layout)
	in := &isa.Inst{Op: isa.MOVZ, Rd: isa.X1, Imm: 5}
	for i := 0; i < 100 && !acquire(p, 0, in, nil); i++ {
		h.tick(p, 1)
	}
	p.InstDecoded(0, 1, in)
	p.InstCommitted(0, 1)
	if p.Tags().Occupancy() == 0 {
		t.Fatal("expected resident registers")
	}
	p.ThreadHalted(0)
	if p.Tags().Occupancy() != 0 {
		t.Errorf("halted thread left %d registers resident", p.Tags().Occupancy())
	}
}

func TestSoftwareSwitchCost(t *testing.T) {
	h := newHarness(2)
	p := NewSoftware(2, h.dev, h.memory, h.layout)
	h.seed(0, isa.X1, 11)
	h.seed(1, isa.X1, 22)
	// Restore thread 0 (no save: bank empty).
	start := h.cycle
	for !canSwitch(p, 0) {
		h.tick(p, 1)
		if h.cycle > start+10000 {
			t.Fatal("restore never completed")
		}
	}
	firstCost := h.cycle - start
	// One register per cycle through the port: 33 loads minimum.
	if firstCost < 33 {
		t.Errorf("restore cost %d cycles, want >= 33 (one access per register)", firstCost)
	}
	p.OnSwitch(-1, 0, 1)
	if got := p.ReadValue(0, isa.X1); got != 11 {
		t.Errorf("restored x1 = %d, want 11", got)
	}
	// Switch to thread 1: save + restore, at least 66 accesses.
	start = h.cycle
	for !canSwitch(p, 1) {
		h.tick(p, 1)
		if h.cycle > start+10000 {
			t.Fatal("switch never completed")
		}
	}
	if cost := h.cycle - start; cost < 66 {
		t.Errorf("full switch cost %d cycles, want >= 66", cost)
	}
	p.OnSwitch(0, 1, 0)
	if got := p.ReadValue(1, isa.X1); got != 22 {
		t.Errorf("thread 1 x1 = %d, want 22", got)
	}
	// Thread 0's context was saved.
	if got := h.memory.Read64(h.layout.RegAddr(0, isa.X1)); got != 11 {
		t.Errorf("saved t0.x1 = %d, want 11", got)
	}
}

func TestPrefetchDoubleBuffer(t *testing.T) {
	h := newHarness(2)
	p := NewPrefetch(PrefetchFull, 3, h.dev, h.memory, h.layout)
	for th := 0; th < 3; th++ {
		h.seed(th, isa.X2, uint64(th*10))
	}
	for i := 0; i < 1000 && !canSwitch(p, 0); i++ {
		h.tick(p, 1)
	}
	p.OnSwitch(-1, 0, 1)
	if got := p.ReadValue(0, isa.X2); got != 0 {
		t.Errorf("t0.x2 = %d, want 0", got)
	}
	// Thread 1 should be prefetched into the other bank during t0's run.
	for i := 0; i < 1000 && !canSwitch(p, 1); i++ {
		h.tick(p, 1)
	}
	p.OnSwitch(0, 1, 2)
	if got := p.ReadValue(1, isa.X2); got != 10 {
		t.Errorf("t1.x2 = %d, want 10", got)
	}
	// Rotating on: thread 2 replaces thread 0's bank.
	for i := 0; i < 1000 && !canSwitch(p, 2); i++ {
		h.tick(p, 1)
	}
	p.OnSwitch(1, 2, 0)
	if got := p.ReadValue(2, isa.X2); got != 20 {
		t.Errorf("t2.x2 = %d, want 20", got)
	}
}

func TestPrefetchExactOnDemandFallback(t *testing.T) {
	h := newHarness(2)
	p := NewPrefetch(PrefetchExact, 2, h.dev, h.memory, h.layout)
	p.SetUsedRegs(0, []isa.Reg{isa.X1}) // oracle misses x2
	h.seed(0, isa.X1, 5)
	h.seed(0, isa.X2, 6)
	for i := 0; i < 1000 && !canSwitch(p, 0); i++ {
		h.tick(p, 1)
	}
	p.OnSwitch(-1, 0, 1)
	in := &isa.Inst{Op: isa.ADDI, Rd: isa.X3, Rn: isa.X2, Imm: 0}
	need := []isa.Reg{isa.X2}
	if acquire(p, 0, in, need) {
		t.Fatal("x2 outside the oracle set must miss initially")
	}
	for i := 0; i < 1000 && !acquire(p, 0, in, need); i++ {
		h.tick(p, 1)
	}
	if got := p.ReadValue(0, isa.X2); got != 6 {
		t.Errorf("on-demand x2 = %d, want 6", got)
	}
	if p.OnDemandFills != 1 {
		t.Errorf("OnDemandFills = %d, want 1", p.OnDemandFills)
	}
}

// TestPrefetchAnySchedule switches Prefetch out of round-robin order: t0
// starts with t1 named as its successor and prefetched, but t2 runs next,
// then t1, t0, t2 and t1 again. While a switch is pending the running
// thread must keep its bank and acquire, and the value each thread last
// wrote to x9 must read back when it runs again. x9 is outside the exact
// oracle set, so it comes back only through the store-back.
func TestPrefetchAnySchedule(t *testing.T) {
	steps := []struct{ next, succ int }{{0, 1}, {2, 1}, {1, 0}, {0, 2}, {2, 1}, {1, 0}}
	write := &isa.Inst{Op: isa.MOVZ, Rd: isa.X9}
	read := &isa.Inst{Op: isa.ADDI, Rd: isa.X2, Rn: isa.X9}
	for _, kind := range []PrefetchKind{PrefetchFull, PrefetchExact} {
		t.Run(kind.String(), func(t *testing.T) {
			h := newHarness(2)
			p := NewPrefetch(kind, 3, h.dev, h.memory, h.layout)
			for th := 0; th < 3; th++ {
				p.SetUsedRegs(th, []isa.Reg{isa.X1})
			}
			var last [3]uint64
			cur := -1
			for i, st := range steps {
				for n := 0; !canSwitch(p, st.next); n++ {
					if cur >= 0 && !acquire(p, cur, write, nil) {
						t.Fatalf("step %d: t%d lost its bank while t%d loads", i, cur, st.next)
					}
					if n == 1000 {
						t.Fatalf("step %d: switch to t%d never ready", i, st.next)
					}
					h.tick(p, 1)
				}
				p.OnSwitch(cur, st.next, st.succ)
				cur = st.next
				if last[cur] != 0 {
					need := []isa.Reg{isa.X9}
					for n := 0; !acquire(p, cur, read, need); n++ {
						if n == 1000 {
							t.Fatalf("step %d: t%d never acquired x9", i, cur)
						}
						h.tick(p, 1)
					}
					if got := p.ReadValue(cur, isa.X9); got != last[cur] {
						t.Errorf("step %d: t%d x9 = %d, want %d", i, cur, got, last[cur])
					}
				}
				if !acquire(p, cur, write, nil) {
					t.Fatalf("step %d: t%d cannot acquire after its switch", i, cur)
				}
				last[cur] = uint64(1000 + 10*i + cur)
				p.WriteValue(cur, isa.X9, last[cur])
			}
		})
	}
}

// opRecorder is a bsi owner that hands every completion to a test hook.
type opRecorder func(op bsiOp)

func (f opRecorder) bsiDone(op bsiOp) { f(op) }

// TestBSIOpPacks pins the op at 24 bytes, its run count included: BSI
// queue entries and recycled requests hold ops by value.
func TestBSIOpPacks(t *testing.T) {
	if n := unsafe.Sizeof(bsiOp{}); n != 24 {
		t.Errorf("bsiOp is %d bytes, want 24", n)
	}
}

// TestOpQueueMatchesFIFO drives the run queue and a plain slice with the
// same random pushes and pops: contiguous runs, near-misses that differ
// from the tail's continuation in one field, address gaps, and a run past
// the uint16 limit. At every step both must count the same ops and agree
// on the oldest, so the queue hands back exactly the ops pushed, in order.
func TestOpQueueMatchesFIFO(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var q opQueue
	var ref []bsiOp
	step := 0
	check := func() {
		t.Helper()
		step++
		if q.n != len(ref) {
			t.Fatalf("step %d: queue counts %d ops, reference holds %d", step, q.n, len(ref))
		}
		if len(ref) > 0 && q.front() != ref[0] {
			t.Fatalf("step %d: front = %+v, want %+v", step, q.front(), ref[0])
		}
	}
	last := bsiOp{addr: regBase, kind: mem.Write}
	push := func(op bsiOp) {
		q.push(op)
		ref = append(ref, op)
		last = op
		check()
	}
	pop := func() {
		q.pop()
		ref = ref[1:]
		check()
	}
	for i := 0; i < 20000; i++ {
		next := last
		next.addr += 8
		if i == 10000 {
			// A run one op past the uint16 limit, after an address gap:
			// it takes exactly two new entries.
			before := q.entries
			next.addr += 8
			for k := 0; k <= math.MaxUint16; k++ {
				push(next)
				next.addr += 8
			}
			if q.entries != before+2 {
				t.Fatalf("a run of %d ops took %d entries, want 2", math.MaxUint16+1, q.entries-before)
			}
			continue
		}
		switch r := rng.IntN(10); {
		case r < 4: // continue the run
		case r < 6: // near-miss: one other field differs
			switch rng.IntN(8) {
			case 0:
				next.thread++
			case 1:
				next.slot++
			case 2:
				next.reg++
			case 3:
				next.kind ^= mem.Write
			case 4:
				next.noCrit = !next.noCrit
			case 5:
				next.sticky = !next.sticky
			case 6:
				next.unpin = !next.unpin
			default:
				next.done = (next.done + 1) % (doneCount + 1)
			}
		case r < 8: // address gap: forward, backward or repeated
			next.addr = last.addr + 8*mem.Addr(rng.IntN(5)) - 8
			if next.addr == last.addr+8 {
				next.addr += 8
			}
		default:
			for k := rng.IntN(4); k >= 0 && len(ref) > 0; k-- {
				pop()
			}
			continue
		}
		push(next)
	}
	for len(ref) > 0 {
		pop()
	}
	if q.entries != 0 {
		t.Errorf("drained queue holds %d entries", q.entries)
	}
}

// writeLog is a fixed-latency device that records the address of every
// write it accepts.
type writeLog struct {
	*mem.DelayDevice
	writes []mem.Addr
}

func (d *writeLog) Access(r *mem.Request) bool {
	if r.Kind == mem.Write {
		d.writes = append(d.writes, r.Addr)
	}
	return d.DelayDevice.Access(r)
}

// TestPrefetchFullStoreBackIsOneRun recycles a bank and checks that the
// outgoing context's 64 registers and system-register line queue as one
// entry, count as 65 ops, and reach the dcache as 65 writes in address
// order.
func TestPrefetchFullStoreBackIsOneRun(t *testing.T) {
	h := newHarness(2)
	dev := &writeLog{DelayDevice: h.dev}
	p := NewPrefetch(PrefetchFull, 3, dev, h.memory, h.layout)
	for i := 0; i < 1000 && !canSwitch(p, 0); i++ {
		h.tick(p, 1)
	}
	p.OnSwitch(-1, 0, 1) // prefetches t1 into the other bank
	for i := 0; i < 1000 && p.bsi.Outstanding() > 0; i++ {
		h.tick(p, 1)
	}
	// Running t1 recycles t0's bank for t2: t0's context goes back.
	p.OnSwitch(0, 1, 2)
	const ops = isa.NumRegs + 1
	st := &p.bsi.stores
	if st.entries != 1 || st.n != ops {
		t.Fatalf("store-back queued %d ops in %d entries, want %d in 1", st.n, st.entries, ops)
	}
	if got, want := p.bsi.Outstanding(), p.bsi.loads.n+ops; got != want {
		t.Errorf("Outstanding() = %d, want %d (t2's %d loads and %d stores)", got, want, p.bsi.loads.n, ops)
	}
	for i := 0; i < 1000 && p.bsi.Outstanding() > 0; i++ {
		h.tick(p, 1)
	}
	if len(dev.writes) != ops {
		t.Fatalf("BSI issued %d writes, want %d", len(dev.writes), ops)
	}
	for i, a := range dev.writes {
		if want := h.layout.RegAddr(0, 0) + mem.Addr(8*i); a != want {
			t.Fatalf("write %d at %#x, want %#x", i, a, want)
		}
	}
	if got, want := dev.writes[ops-1], h.layout.SysRegAddr(0); got != want {
		t.Errorf("last write at %#x, want t0's system-register line %#x", got, want)
	}
}

// TestOpQueueSteadyStateAllocs requires a grown queue to push and pop runs
// without allocating.
func TestOpQueueSteadyStateAllocs(t *testing.T) {
	var q opQueue
	churn := func() {
		for th := 0; th < 4; th++ {
			for r := 0; r <= isa.NumRegs; r++ {
				q.push(bsiOp{addr: regBase + mem.Addr(th*cpu.ThreadStride+8*r), kind: mem.Write})
			}
			q.push(bsiOp{addr: regBase, kind: mem.Read, reg: isa.X3})
		}
		for q.n > 0 {
			q.pop()
		}
	}
	churn() // warm up: grow the ring
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Errorf("steady-state push/pop made %.1f allocations per run, want 0", allocs)
	}
}

func TestBSIPrioritizesLoads(t *testing.T) {
	dev := mem.NewDelayDevice(5)
	var order []string
	b := newBSI(nil, dev, true, opRecorder(func(op bsiOp) {
		if op.kind == mem.Write {
			order = append(order, "store")
		} else {
			order = append(order, "load")
		}
	}))
	b.pushStore(bsiOp{addr: regBase, kind: mem.Write, done: doneCount})
	b.pushLoad(bsiOp{addr: regBase + 8, kind: mem.Read, done: doneCount})
	for cy := uint64(1); cy < 50; cy++ {
		b.Tick(cy)
		dev.Tick(cy)
	}
	if len(order) != 2 || order[0] != "load" {
		t.Errorf("completion order = %v, want load first", order)
	}
}

func TestBlockingBSISerializes(t *testing.T) {
	dev := mem.NewDelayDevice(10)
	done := 0
	b := newBSI(nil, dev, false, opRecorder(func(bsiOp) { done++ })) // blocking
	for i := 0; i < 3; i++ {
		b.pushLoad(bsiOp{addr: regBase + mem.Addr(8*i), kind: mem.Read, done: doneCount})
	}
	// After 15 cycles only the first transaction can have completed.
	for cy := uint64(1); cy <= 15; cy++ {
		b.Tick(cy)
		dev.Tick(cy)
	}
	if done != 1 {
		t.Errorf("blocking BSI completed %d ops in 15 cycles, want 1", done)
	}
	for cy := uint64(16); cy <= 100; cy++ {
		b.Tick(cy)
		dev.Tick(cy)
	}
	if done != 3 {
		t.Errorf("blocking BSI completed %d ops, want 3", done)
	}
}

func TestViReCGroupEviction(t *testing.T) {
	h := newHarness(5)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.LRC, GroupEvict: true},
		2, h.dev, h.memory, h.layout)
	// Fill thread 0's x0..x7 (one backing line) and commit values.
	for r := isa.Reg(0); r < 8; r++ {
		in := &isa.Inst{Op: isa.MOVZ, Rd: r, Imm: int64(r)}
		for i := 0; i < 100 && !acquire(p, 0, in, nil); i++ {
			h.tick(p, 1)
		}
		p.InstDecoded(0, uint64(r)+1, in)
		p.WriteValue(0, r, 300+uint64(r))
		p.InstCommitted(0, uint64(r)+1)
	}
	p.OnSwitch(0, 1, 0)
	// One miss from thread 1 should group-evict several of thread 0's
	// same-line registers at once.
	h.seed(1, isa.X9, 1)
	in := &isa.Inst{Op: isa.ADDI, Rd: isa.X10, Rn: isa.X9, Imm: 0}
	need := []isa.Reg{isa.X9}
	for i := 0; i < 300 && !acquire(p, 1, in, need); i++ {
		h.tick(p, 1)
	}
	if p.GroupEvictions == 0 {
		t.Error("group eviction never triggered")
	}
	h.tick(p, 200) // drain spills
	for r := isa.Reg(0); r < 8; r++ {
		if p.Tags().Contains(0, r) {
			continue // survivors keep their values in the RF
		}
		if got := h.memory.Read64(h.layout.RegAddr(0, r)); got != 300+uint64(r) {
			t.Errorf("group-evicted t0.%s spilled %d, want %d", r, got, 300+uint64(r))
		}
	}
}

func TestViReCPrefetchNext(t *testing.T) {
	h := newHarness(5)
	p := NewViReC(ViReCConfig{PhysRegs: 16, Policy: vrmu.LRC, PrefetchNext: true},
		3, h.dev, h.memory, h.layout)
	p.SetPrefetchRegs(1, []isa.Reg{isa.X2, isa.X3})
	h.seed(1, isa.X2, 42)
	h.seed(1, isa.X3, 43)
	// Switching -1 -> 0 prefetches the successor (thread 1).
	for i := 0; i < 500 && !canSwitch(p, 0); i++ {
		h.tick(p, 1)
	}
	p.OnSwitch(-1, 0, 1)
	h.tick(p, 200)
	if p.Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
	if !p.Tags().Contains(1, isa.X2) || !p.Tags().Contains(1, isa.X3) {
		t.Error("prefetched registers not resident")
	}
	// When thread 1 runs, its prefetched registers hit with real values.
	p.OnSwitch(0, 1, 2)
	in := &isa.Inst{Op: isa.ADD, Rd: isa.X4, Rn: isa.X2, Rm: isa.X3}
	need := []isa.Reg{isa.X2, isa.X3}
	if !acquire(p, 1, in, need) {
		t.Fatal("prefetched registers must hit")
	}
	if got := p.ReadValue(1, isa.X2); got != 42 {
		t.Errorf("prefetched x2 = %d, want 42", got)
	}
}

func TestViReCCommitReallocAfterEviction(t *testing.T) {
	// A register evicted between decode and commit is re-allocated when
	// the commit writes it (allocate-on-write).
	h := newHarness(5)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.LRC}, 2, h.dev, h.memory, h.layout)
	in := &isa.Inst{Op: isa.MOVZ, Rd: isa.X1, Imm: 5}
	for i := 0; i < 100 && !acquire(p, 0, in, nil); i++ {
		h.tick(p, 1)
	}
	p.InstDecoded(0, 1, in)
	// The context switch flushes the in-flight instruction (it will
	// replay); force x1's eviction by filling the RF with thread 1
	// registers, then deliver the commit-time write anyway (the pipeline
	// does this when the instruction commits post-replay while its
	// register has been displaced).
	p.PipelineFlushed(0)
	p.OnSwitch(0, 1, 0)
	seq := uint64(10)
	for r := isa.Reg(0); r < 8; r++ {
		in2 := &isa.Inst{Op: isa.MOVZ, Rd: r, Imm: 1}
		for i := 0; i < 200 && !acquire(p, 1, in2, nil); i++ {
			h.tick(p, 1)
		}
		seq++
		p.InstDecoded(1, seq, in2)
		p.InstCommitted(1, seq)
	}
	// Now commit thread 0's write.
	p.WriteValue(0, isa.X1, 42)
	h.tick(p, 100)
	if got := p.ReadValue(0, isa.X1); got != 42 {
		t.Errorf("reallocated x1 = %d, want 42", got)
	}
}

func TestViReCNoDummyDestWaitsForFill(t *testing.T) {
	h := newHarness(20)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.LRC, NoDummyDest: true},
		1, h.dev, h.memory, h.layout)
	h.seed(0, isa.X1, 9)
	in := &isa.Inst{Op: isa.MOVZ, Rd: isa.X1, Imm: 5}
	if acquire(p, 0, in, nil) {
		t.Fatal("NoDummyDest: destination must wait for a real fill")
	}
	for i := 0; i < 200 && !acquire(p, 0, in, nil); i++ {
		h.tick(p, 1)
	}
	if !acquire(p, 0, in, nil) {
		t.Fatal("fill never completed")
	}
	if got := p.ReadValue(0, isa.X1); got != 9 {
		t.Errorf("filled dest old value = %d, want 9", got)
	}
}

func TestPrefetchFullHandlesHaltedRotation(t *testing.T) {
	// With 3 threads where one halts, the double buffer must keep
	// rotating among the survivors.
	h := newHarness(2)
	p := NewPrefetch(PrefetchFull, 3, h.dev, h.memory, h.layout)
	for i := 0; i < 1000 && !canSwitch(p, 0); i++ {
		h.tick(p, 1)
	}
	p.OnSwitch(-1, 0, 1)
	p.ThreadHalted(0)
	for i := 0; i < 1000 && !canSwitch(p, 1); i++ {
		h.tick(p, 1)
	}
	p.OnSwitch(0, 1, 2)
	for i := 0; i < 1000 && !canSwitch(p, 2); i++ {
		h.tick(p, 1)
	}
	p.OnSwitch(1, 2, 1)
	// Back to 1.
	for i := 0; i < 1000 && !canSwitch(p, 1); i++ {
		h.tick(p, 1)
	}
	if !canSwitch(p, 1) {
		t.Error("rotation among survivors broke after a halt")
	}
}

func TestBankedXZRWriteDiscarded(t *testing.T) {
	h := newHarness(1)
	p := NewBanked(1, h.dev, h.memory, h.layout)
	p.WriteValue(0, isa.XZR, 99)
	if p.ReadValue(0, isa.XZR) != 0 {
		t.Error("XZR write must be discarded")
	}
}

// TestOracleDistanceMatchesLinearScan checks the Belady index against a
// linear scan of a fixed access sequence at every cursor position: x1 is
// used often, x2 and v0 once, x3 never, XZR entries are ignored, and the
// cursor runs past every register's last use. A thread with no installed
// sequence reports distance 0. The caller's buffer is overwritten after
// the install, as the oracle recorder reuses it for the next thread.
func TestOracleDistanceMatchesLinearScan(t *testing.T) {
	h := newHarness(1)
	p := NewViReC(ViReCConfig{PhysRegs: 8, Policy: vrmu.Belady}, 2, h.dev, h.memory, h.layout)
	seq := []isa.Reg{isa.X1, isa.X4, isa.XZR, isa.X1, isa.X2, isa.X4, isa.X1, isa.V0, isa.X1, isa.X4}
	buf := slices.Clone(seq)
	p.SetOracleSeq(1, buf)
	clear(buf)
	scan := func(cur int, r isa.Reg) uint64 {
		for i := cur; i < len(seq); i++ {
			if seq[i] == r && r != isa.XZR {
				return uint64(i - cur)
			}
		}
		return 0xffffffff
	}
	regs := []isa.Reg{isa.X1, isa.X2, isa.X3, isa.X4, isa.V0, isa.XZR}
	for cur := 0; cur <= len(seq)+2; cur++ {
		p.oracleCursor[1] = uint32(cur)
		for _, r := range regs {
			if got, want := p.oracleDistance(1, r), scan(cur, r); got != want {
				t.Errorf("cursor %d, %v: distance %d, want %d", cur, r, got, want)
			}
		}
	}
	for _, r := range regs {
		if got := p.oracleDistance(0, r); got != 0 {
			t.Errorf("thread without a sequence, %v: distance %d, want 0", r, got)
		}
	}
}

// heldDev accepts every request and completes none until the test says
// so: a request it holds is still lent out.
type heldDev struct {
	reqs []*mem.Request
}

func (d *heldDev) Access(r *mem.Request) bool {
	d.reqs = append(d.reqs, r)
	return true
}

func (d *heldDev) Tick(uint64) {}

// TestReleasedBSIBuffersServeTheNext checks that a BSI rebuilt from a
// released one keeps its request holders and both op rings: once they
// have grown, a rebuilt BSI's transactions allocate nothing.
func TestReleasedBSIBuffersServeTheNext(t *testing.T) {
	dev := mem.NewDelayDevice(3)
	owner := opRecorder(func(bsiOp) {})
	var b *bsi
	var cycle uint64
	run := func() {
		b = newBSI(b, dev, true, owner)
		for i := 0; i < 12; i++ {
			// A gap between addresses keeps every op its own queue entry.
			b.pushLoad(bsiOp{addr: regBase + mem.Addr(16*i), kind: mem.Read, done: doneFill})
			b.pushStore(bsiOp{addr: regBase + 0x1000 + mem.Addr(16*i), kind: mem.Write})
		}
		for i := 0; b.Outstanding() > 0; i++ {
			if i == 1000 {
				t.Fatalf("%d transactions still outstanding after %d cycles", b.Outstanding(), i)
			}
			cycle++
			b.Tick(cycle)
			dev.Tick(cycle)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("a rebuilt BSI made %.1f allocations for 24 transactions, want 0", allocs)
	}
}

// TestBSIReleaseKeepsLentHolders checks which holders a rebuilt BSI
// issues: the ones idle when it was released, never one still lent to the
// old system's dcache. That dcache's own rebuild drops the lent holder
// without completing it.
func TestBSIReleaseKeepsLentHolders(t *testing.T) {
	var oldDone, newDone int
	held := &heldDev{}
	b := newBSI(nil, held, true, opRecorder(func(bsiOp) { oldDone++ }))
	b.pushLoad(bsiOp{addr: regBase, kind: mem.Read, done: doneFill})
	b.pushLoad(bsiOp{addr: regBase + 0x100, kind: mem.Read, done: doneFill})
	b.Tick(1)
	b.Tick(2)
	if len(held.reqs) != 2 {
		t.Fatalf("the old BSI issued %d requests, want 2", len(held.reqs))
	}
	idle, lent := held.reqs[0], held.reqs[1]
	idle.Complete(3)

	next := &heldDev{}
	b = newBSI(b, next, true, opRecorder(func(bsiOp) { newDone++ }))
	if b.Outstanding() != 0 {
		t.Fatalf("the rebuilt BSI starts with %d transactions", b.Outstanding())
	}
	for i := 0; i < 3; i++ {
		b.pushLoad(bsiOp{addr: regBase + mem.Addr(0x100*i), kind: mem.Read, done: doneFill})
		b.Tick(uint64(4 + i))
	}
	for _, r := range next.reqs {
		if r == lent {
			t.Fatal("a holder still lent to the old dcache was issued again")
		}
	}
	if next.reqs[0] != idle {
		t.Error("the rebuilt BSI allocated a holder while the released BSI's idle one was free")
	}
	for _, r := range next.reqs {
		r.Complete(10)
	}
	if oldDone != 1 || newDone != 3 {
		t.Errorf("completions: old owner %d, new owner %d; want 1 and 3", oldDone, newDone)
	}
	if b.Outstanding() != 0 {
		t.Errorf("the rebuilt BSI still counts %d transactions", b.Outstanding())
	}
}

// TestBSIPoolsConcurrent builds, runs and releases banked providers of
// several sizes from several goroutines at once, as parallel sweep workers
// do. Each round loads every thread's context through the BSI of a
// provider some goroutine released, and every bank must end up holding
// its own thread's registers.
func TestBSIPoolsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := newHarness(uint64(1 + g))
			for round := 0; round < 50; round++ {
				threads := 1 + (g+round)%4
				for th := 0; th < threads; th++ {
					for r := isa.Reg(0); r < isa.NumRegs; r++ {
						h.seed(th, r, uint64(g<<24|round<<16|th<<8)|uint64(r))
					}
				}
				p := NewBanked(threads, h.dev, h.memory, h.layout)
				for th := 0; th < threads; th++ {
					p.ThreadStarted(th)
				}
				for i := 0; p.bsi.Outstanding() > 0; i++ {
					if i == 10000 {
						t.Errorf("goroutine %d round %d: %d transactions stuck", g, round, p.bsi.Outstanding())
						return
					}
					h.tick(p, 1)
				}
				for th := 0; th < threads; th++ {
					for r := isa.Reg(0); r < isa.NumRegs; r++ {
						if got, want := p.ReadValue(th, r), h.memory.Read64(h.layout.RegAddr(th, r)); r != isa.XZR && got != want {
							t.Errorf("goroutine %d round %d: t%d %v = %#x, want %#x", g, round, th, r, got, want)
							return
						}
					}
				}
				p.Release()
			}
		}(g)
	}
	wg.Wait()
}

// TestOracleSeqSharedByEqualNeighbours installs sequences A, A, B, B on
// four threads, where B holds A's registers in another order. Threads 0
// and 1 share one set of position lists and threads 2 and 3 another, and
// none is shared across the pairs. With every thread's cursor at its own
// place, each thread's distances equal those of a provider given its
// sequence on its own.
func TestOracleSeqSharedByEqualNeighbours(t *testing.T) {
	a := []isa.Reg{isa.X1, isa.X4, isa.XZR, isa.X1, isa.X2, isa.X4, isa.X1, isa.V0, isa.X1, isa.X4}
	b := []isa.Reg{isa.X4, isa.X1, isa.XZR, isa.X1, isa.X2, isa.X4, isa.X1, isa.V0, isa.X1, isa.X4}
	seqs := [][]isa.Reg{a, a, b, b}
	h := newHarness(1)
	cfg := ViReCConfig{PhysRegs: 8, Policy: vrmu.Belady}
	p := NewViReC(cfg, len(seqs), h.dev, h.memory, h.layout)
	buf := make([]isa.Reg, len(a))
	for th, seq := range seqs {
		copy(buf, seq)
		p.SetOracleSeq(th, buf)
	}
	clear(buf)
	occ := p.oracleOcc
	if occ[0] != occ[1] || occ[2] != occ[3] {
		t.Error("threads with equal sequences hold separate position lists")
	}
	if occ[1] == occ[2] {
		t.Error("threads with different sequences share position lists")
	}
	for _, seq := range [][]isa.Reg{a[:len(a)-1], append(slices.Clone(a), isa.X1)} {
		if sameSeq(occ[0], seq) {
			t.Errorf("sequence %v matched the lists of %v", seq, a)
		}
	}

	alone := make([]*ViReC, len(seqs))
	for th, seq := range seqs {
		alone[th] = NewViReC(cfg, 1, h.dev, h.memory, h.layout)
		alone[th].SetOracleSeq(0, seq)
	}
	for cur := 0; cur <= len(a)+2; cur++ {
		for th := range seqs {
			p.oracleCursor[th] = uint32(cur + 3*th)
			alone[th].oracleCursor[0] = uint32(cur + 3*th)
		}
		for th := range seqs {
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if got, want := p.oracleDistance(th, r), alone[th].oracleDistance(0, r); got != want {
					t.Errorf("thread %d, cursor %d, %v: distance %d, alone %d", th, cur+3*th, r, got, want)
				}
			}
		}
	}
}
