package regfile

import (
	"testing"

	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/vrmu"
)

// Rollback corner cases through the full ViReC provider: pipeline flushes
// racing in-flight fills, commits landing in the same cycle as the flush
// that squashes their successors, and rollback over dummy-destination
// (spill-elided) allocations. The vrmu package tests the same races at
// the tag-store level; these drive them through Acquire / InstDecoded /
// WriteValue / InstCommitted / PipelineFlushed exactly as the core does.

func newViReC(t *testing.T, h *harness, latencyRegs int) *ViReC {
	t.Helper()
	return NewViReC(ViReCConfig{PhysRegs: latencyRegs, Policy: vrmu.LRC}, 2, h.dev, h.memory, h.layout)
}

// acquireUntil retries Acquire with ticks until it succeeds.
func acquireUntil(t *testing.T, h *harness, p *ViReC, thread int, in *isa.Inst, need []isa.Reg) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if acquire(p, thread, in, need) {
			return
		}
		h.tick(p, 1)
	}
	t.Fatalf("Acquire(%s) never succeeded", in)
}

// TestFlushWhileFillInFlight covers the flush-vs-fill race table: a fill
// for a register is outstanding when the pipeline flushes (switch-on-miss
// squashes the very instruction that requested it). Whether the register
// is then re-read, overwritten by a replayed older instruction, or both,
// the architectural value must win and the late fill must never clobber a
// newer write.
func TestFlushWhileFillInFlight(t *testing.T) {
	cases := []struct {
		name string
		// after: runs immediately after the flush, with the fill still
		// in flight; returns the value ReadValue must yield once the
		// provider settles.
		after func(t *testing.T, h *harness, p *ViReC) uint64
	}{
		{
			// Plain replay: the fill lands after the flush and the
			// backing-store value is read.
			name:  "flush-then-refill",
			after: func(t *testing.T, h *harness, p *ViReC) uint64 { return 1234 },
		},
		{
			// A replayed older instruction writes the register while the
			// fill is still outstanding: the write supersedes the fill,
			// and the stale backing value must not overwrite it when the
			// fill completes.
			name: "flush-then-write-supersedes-fill",
			after: func(t *testing.T, h *harness, p *ViReC) uint64 {
				wr := &isa.Inst{Op: isa.MOVZ, Rd: isa.X3, Imm: 999}
				acquireUntil(t, h, p, 0, wr, nil)
				p.InstDecoded(0, 10, wr)
				p.WriteValue(0, isa.X3, 999)
				p.InstCommitted(0, 10)
				return 999
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(40) // long latency keeps the fill in flight
			p := newViReC(t, h, 8)
			h.seed(0, isa.X3, 1234)

			in := &isa.Inst{Op: isa.ADDI, Rd: isa.X4, Rn: isa.X3, Imm: 1}
			if acquire(p, 0, in, []isa.Reg{isa.X3}) {
				t.Fatal("first Acquire must miss while the fill runs")
			}
			h.tick(p, 2) // fill issued, still outstanding
			p.PipelineFlushed(0)

			want := tc.after(t, h, p)
			h.tick(p, 200) // let the (possibly superseded) fill land

			acquireUntil(t, h, p, 0, in, []isa.Reg{isa.X3})
			if got := p.ReadValue(0, isa.X3); got != want {
				t.Errorf("x3 = %d after %s, want %d", got, tc.name, want)
			}
			if msg := p.CheckInvariants(); msg != "" {
				t.Errorf("invariants: %s", msg)
			}
		})
	}
}

// TestCommitRacesFlushSameCycle: instruction A commits in the same cycle
// a context-switch flush squashes its successor B, which reads the same
// register. The provider sees InstCommitted(A) then PipelineFlushed — the
// core's commit stage runs before the flush takes effect. B's rollback
// entry must clear the register's C bit (A's commit just set it), the
// committed value must survive for B's replay, and B's eventual re-commit
// must set the bit again.
func TestCommitRacesFlushSameCycle(t *testing.T) {
	h := newHarness(2)
	p := newViReC(t, h, 8)

	// A: movz x4, #55 (seq 1).
	a := &isa.Inst{Op: isa.MOVZ, Rd: isa.X4, Imm: 55}
	acquireUntil(t, h, p, 0, a, nil)
	p.InstDecoded(0, 1, a)
	p.WriteValue(0, isa.X4, 55)

	// B: addi x5, x4, 1 (seq 2) — in flight behind A, reads x4.
	b := &isa.Inst{Op: isa.ADDI, Rd: isa.X5, Rn: isa.X4, Imm: 1}
	acquireUntil(t, h, p, 0, b, []isa.Reg{isa.X4})
	p.InstDecoded(0, 2, b)

	// Same cycle: A commits, then the flush squashes B.
	p.InstCommitted(0, 1)
	p.PipelineFlushed(0)

	phys, hit := p.Tags().Lookup(0, isa.X4)
	if !hit {
		t.Fatal("x4 evicted by the rollback; it must be retained for the replay")
	}
	if p.Tags().Entry(phys).C {
		t.Error("x4's C bit survived the rollback of in-flight B")
	}
	if got := p.ReadValue(0, isa.X4); got != 55 {
		t.Errorf("x4 = %d after the race, want the committed 55", got)
	}

	// B replays under a fresh sequence number and commits: C returns.
	acquireUntil(t, h, p, 0, b, []isa.Reg{isa.X4})
	p.InstDecoded(0, 3, b)
	p.WriteValue(0, isa.X5, 56)
	p.InstCommitted(0, 3)
	if !p.Tags().Entry(phys).C {
		t.Error("x4's C bit not set by the replayed commit")
	}
	if msg := p.CheckInvariants(); msg != "" {
		t.Errorf("invariants: %s", msg)
	}
}

// TestDummyRollbackElidesSpill: a pure-destination register is allocated
// via the dummy optimization (no fill from the backing store), then its
// defining instruction is squashed before committing. When the entry is
// later evicted, the placeholder must NOT be spilled — the backing store
// still holds the architecturally-live old value, and a replayed reader
// must see it.
func TestDummyRollbackElidesSpill(t *testing.T) {
	h := newHarness(2)
	p := newViReC(t, h, 8)
	h.seed(0, isa.X7, 4242) // architectural value before the squashed def

	// movz x7, #1 decodes (dummy-destination alloc), then is squashed.
	def := &isa.Inst{Op: isa.MOVZ, Rd: isa.X7, Imm: 1}
	acquireUntil(t, h, p, 0, def, nil)
	p.InstDecoded(0, 1, def)
	p.PipelineFlushed(0)

	phys, hit := p.Tags().Lookup(0, isa.X7)
	if !hit {
		t.Fatal("x7 not resident after the dummy alloc")
	}
	if !p.Tags().Entry(phys).Dummy {
		t.Fatal("x7's entry lost the Dummy mark across the rollback")
	}

	// LRC retains the rolled-back (C = 0) entry against same-thread
	// pressure — that is the policy working as designed — so suspend
	// thread 0 and let thread 1's allocations force the eviction.
	p.OnSwitch(0, 1)
	seq := uint64(10)
	for r := isa.Reg(10); r < 26; r++ {
		in := &isa.Inst{Op: isa.MOVZ, Rd: r, Imm: 7}
		acquireUntil(t, h, p, 1, in, nil)
		seq++
		p.InstDecoded(1, seq, in)
		p.WriteValue(1, r, uint64(r))
		p.InstCommitted(1, seq)
		if !p.Tags().Contains(0, isa.X7) {
			break
		}
	}
	if p.Tags().Contains(0, isa.X7) {
		t.Fatal("x7 was never evicted; test did not exercise the spill path")
	}
	h.tick(p, 100) // drain any BSI traffic

	if got := h.memory.Read64(h.layout.RegAddr(0, isa.X7)); got != 4242 {
		t.Errorf("backing store x7 = %d; the dummy placeholder was spilled over 4242", got)
	}

	// A replayed reader fills from the backing store and sees the old
	// architectural value.
	rd := &isa.Inst{Op: isa.ADDI, Rd: isa.X9, Rn: isa.X7, Imm: 0}
	acquireUntil(t, h, p, 0, rd, []isa.Reg{isa.X7})
	if got := p.ReadValue(0, isa.X7); got != 4242 {
		t.Errorf("refilled x7 = %d, want 4242", got)
	}
	if msg := p.CheckInvariants(); msg != "" {
		t.Errorf("invariants: %s", msg)
	}
}
