package cpu

import (
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
)

// Provider is the register-context storage behind the pipeline's decode
// and commit stages. Four implementations live in package cpu/regfile:
// a banked register file, software context switching, the ViReC VRMU, and
// double-buffer prefetching (full and oracle-exact variants).
//
// All methods are called from the core's single-threaded Tick loop, in
// deterministic order; implementations never need locking.
//
// Acquire and CanSwitchTo are decision chains that also run in probe mode
// (probe=true), which is how clock skip-ahead proves a cycle is a pure
// stall: the call changes nothing, and at the first state change it would
// make (a counter, a lock set, a fill or transfer pushed, a slot or bank
// claimed, a switch begun) it stops and reports acts=true instead.
// Otherwise it returns what the real call would return. In normal mode
// acts is always false.
type Provider interface {
	// Acquire attempts to make every register of in resident for thread:
	// the sources listed in needSrcs must have readable committed values
	// and each destination needs a writable slot. ready reports that the
	// instruction can leave decode this cycle. It is retried every cycle
	// until it succeeds and must be idempotent; implementations start
	// fills/evictions on first call and report progress after. Sources
	// satisfied by pipeline forwarding are excluded from needSrcs but the
	// full instruction is visible for dest handling.
	Acquire(thread int, in *isa.Inst, needSrcs []isa.Reg, probe bool) (ready, acts bool)

	// ReadValue returns the committed value of a resident source
	// register. Only called after Acquire returned true.
	ReadValue(thread int, r isa.Reg) uint64

	// WriteValue stores v as the committed value of (thread, r) when an
	// instruction writes back. The register may have been evicted between
	// decode and commit; implementations re-allocate as needed.
	WriteValue(thread int, r isa.Reg, v uint64)

	// InstDecoded tells the provider an instruction entered the backend
	// (the ViReC rollback queue records its registers). BackendFull-style
	// stalls are handled inside Acquire.
	InstDecoded(thread int, seq uint64, in *isa.Inst)

	// InstCommitted signals in-order commit of seq.
	InstCommitted(thread int, seq uint64)

	// PipelineFlushed signals that every in-flight instruction of thread
	// was squashed (context switch); the ViReC rollback queue resets the
	// C bits of their registers.
	PipelineFlushed(thread int)

	// CanSwitchTo reports whether execution of next may begin now (the
	// ViReC system-register ping-pong buffer must hold next's state;
	// software switching must have finished save/restore; prefetch
	// providers must have the incoming bank loaded). A first query may
	// start that transfer, which acts in probe mode.
	CanSwitchTo(next int, probe bool) (ready, acts bool)

	// BlockSwitch reports whether context switching must be masked this
	// cycle (the ViReC BSI blocks switches while a register fill or
	// spill is outstanding).
	BlockSwitch() bool

	// OnSwitch commits the context switch from prev to next. succ is the
	// thread the core will run after next (next itself when no other is
	// live); a provider that loads state ahead of a switch loads succ's.
	OnSwitch(prev, next, succ int)

	// ThreadStarted runs when a thread is scheduled for the first time.
	ThreadStarted(thread int)

	// ThreadHalted drops all storage for a finished thread.
	ThreadHalted(thread int)

	// Tick advances background activity (BSI transfers, prefetch engine)
	// once per core cycle, after the pipeline stages have run.
	Tick(cycle uint64)

	// SkipQuiescent reports whether Tick would change nothing but the
	// provider's cycle stamp right now (no queued BSI transactions to
	// issue; in-flight dcache transactions whose completions arrive via
	// callbacks are fine). A true result must remain true until an
	// external event (dcache completion) or a core-initiated call mutates
	// the provider.
	SkipQuiescent() bool
}

// RegLayout describes the reserved memory region that backs register
// contexts: each thread owns a 576-byte stride (eight 64-byte lines for
// the 32 integer + 32 floating-point registers plus one line for system
// registers), so a (thread, register) pair maps to a unique backing-store
// address, eight registers per cache line, as in Section 5.3.
type RegLayout struct {
	Base mem.Addr
}

// ThreadStride is the backing-store footprint of one thread context.
const ThreadStride = 9 * mem.LineBytes // 8 int+fp lines + 1 system line

// RegAddr returns the backing-store address of (thread, r).
func (l RegLayout) RegAddr(thread int, r isa.Reg) mem.Addr {
	return l.Base + mem.Addr(thread*ThreadStride+int(r)*8)
}

// SysRegAddr returns the backing-store address of thread's system
// register line.
func (l RegLayout) SysRegAddr(thread int) mem.Addr {
	return l.Base + mem.Addr(thread*ThreadStride+8*mem.LineBytes)
}

// Size returns the total region size for n threads.
func (l RegLayout) Size(n int) uint64 { return uint64(n * ThreadStride) }

// Contains reports whether addr falls inside the region for n threads.
func (l RegLayout) Contains(addr mem.Addr, n int) bool {
	return addr >= l.Base && addr < l.Base+mem.Addr(l.Size(n))
}
