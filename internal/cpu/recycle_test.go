package cpu

import (
	"testing"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
)

// flatProvider is a minimal register provider: one always-resident bank
// per thread and free context switches. It keeps these tests inside the
// package (the real providers import cpu).
type flatProvider struct {
	banks [][isa.NumRegs]uint64
}

func (p *flatProvider) Acquire(int, *isa.Inst, []isa.Reg, bool) (bool, bool) { return true, false }
func (p *flatProvider) ReadValue(t int, r isa.Reg) uint64 {
	if r == isa.XZR {
		return 0
	}
	return p.banks[t][r]
}
func (p *flatProvider) WriteValue(t int, r isa.Reg, v uint64) {
	if r != isa.XZR {
		p.banks[t][r] = v
	}
}
func (p *flatProvider) InstDecoded(int, uint64, *isa.Inst) {}
func (p *flatProvider) InstCommitted(int, uint64)          {}
func (p *flatProvider) PipelineFlushed(int)                {}
func (p *flatProvider) CanSwitchTo(int, bool) (bool, bool) { return true, false }
func (p *flatProvider) BlockSwitch() bool                  { return false }
func (p *flatProvider) OnSwitch(int, int, int)             {}
func (p *flatProvider) ThreadStarted(int)                  {}
func (p *flatProvider) ThreadHalted(int)                   {}
func (p *flatProvider) Tick(uint64)                        {}
func (p *flatProvider) SkipQuiescent() bool                { return true }

// heldDev accepts every request and completes none until the test says
// so, which lets a test deliver a completion at any point it chooses.
type heldDev struct {
	reqs []*mem.Request
}

func (d *heldDev) Access(r *mem.Request) bool {
	d.reqs = append(d.reqs, r)
	return true
}

func (d *heldDev) Tick(uint64) {}

// tickUntil ticks c from *cycle until cond holds, failing after limit
// cycles.
func tickUntil(t *testing.T, c *Core, cycle *uint64, limit int, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < limit; i++ {
		if cond() {
			return
		}
		c.Tick(*cycle)
		*cycle++
	}
	t.Fatalf("cycle %d: never reached: %s", *cycle, what)
}

// A load that misses, is squashed by the context switch and completes only
// after its in-flight record was reused by another thread's load must
// leave that younger load untouched: the completion matches by sequence
// number, not by the record it was issued from.
func TestStaleLoadCompletionLeavesRecycledRecord(t *testing.T) {
	prog := asm.MustAssemble("stale-load", `
		mov x5, #1
		ldr x1, [x10]
		add x2, x1, #1
		halt
	`)
	memory := mem.NewMemory()
	dev := &heldDev{}
	prov := &flatProvider{banks: make([][isa.NumRegs]uint64, 2)}
	c := New(Config{Threads: 2}, prov, dev, memory)
	for th, addr := range []mem.Addr{0x1000, 0x2000} {
		memory.Write64(addr, uint64(100*(th+1)))
		prov.banks[th][isa.X10] = uint64(addr)
		c.Thread(th).SetShadow(isa.X10, uint64(addr))
		c.Thread(th).Prog = prog
	}
	c.Start()

	var cycle uint64
	tickUntil(t, c, &cycle, 100, "thread 0 issues its load",
		func() bool { return len(dev.reqs) == 1 })
	stale, rec := dev.reqs[0], c.mm
	stale.Miss(cycle) // the dcache reports the miss; the CSL switches away
	tickUntil(t, c, &cycle, 100, "thread 1 issues its load",
		func() bool { return len(dev.reqs) == 2 })
	if c.cur != 1 || c.mm == nil || c.mm.thread != 1 || !c.mm.loadIssued {
		t.Fatalf("thread 1's load is not waiting in MEM (cur=%d mm=%s)", c.cur, stageStr(c.mm))
	}
	if c.mm != rec {
		t.Fatal("scenario no longer recycles the squashed load's record; the test is vacuous")
	}

	stale.Complete(cycle) // the squashed load's data finally arrives
	if c.mm.loadDone || c.mm.loadVal != 0 {
		t.Fatalf("stale completion wrote the recycled record: done=%v val=%d",
			c.mm.loadDone, c.mm.loadVal)
	}

	// Deliver every later request as it is issued; both threads must
	// still compute from their own data.
	for i := 0; i < 1000 && !c.Done(); i++ {
		for len(dev.reqs) > 1 {
			r := dev.reqs[1]
			dev.reqs = append(dev.reqs[:1], dev.reqs[2:]...)
			r.Complete(cycle)
		}
		c.Tick(cycle)
		cycle++
	}
	if !c.Done() {
		t.Fatal("threads did not finish")
	}
	for th := 0; th < 2; th++ {
		if got, want := c.Thread(th).Shadow(isa.X2), uint64(100*(th+1)+1); got != want {
			t.Errorf("thread %d x2 = %d, want %d", th, got, want)
		}
	}
}

// An icache completion for a fetch slot dropped by a redirect must not
// mark ready the slot that has since reused its place in the fetch ring.
func TestStaleFetchCompletionLeavesRecycledSlot(t *testing.T) {
	prog := asm.MustAssemble("stale-fetch", `
		mov x1, #1
		mov x2, #2
		mov x3, #3
		mov x4, #4
		halt
	`)
	memory := mem.NewMemory()
	icache := &heldDev{}
	prov := &flatProvider{banks: make([][isa.NumRegs]uint64, 1)}
	c := New(Config{Threads: 1}, prov, mem.NewDelayDevice(1), memory)
	c.SetICache(icache)
	c.Thread(0).Prog = prog
	c.Start()

	var cycle uint64
	tickUntil(t, c, &cycle, 100, "the fetch buffer fills",
		func() bool { return c.fetchQ.n == c.cfg.FetchBufSize })
	stale := icache.reqs[0]
	c.redirect(3) // e.g. a taken branch: the buffered slots are dropped
	c.Tick(cycle)
	cycle++
	if c.fetchQ.n != 1 || c.fetchQ.at(0) != &c.fetchQ.buf[0] || c.fetchQ.at(0).pc != 3 {
		t.Fatal("scenario no longer refills the dropped slot's ring entry; the test is vacuous")
	}

	stale.Complete(cycle)
	if c.fetchQ.at(0).ready {
		t.Fatal("stale icache completion marked the recycled fetch slot ready")
	}
	icache.reqs[len(icache.reqs)-1].Complete(cycle)
	if !c.fetchQ.at(0).ready {
		t.Fatal("the slot's own icache completion did not mark it ready")
	}
}
