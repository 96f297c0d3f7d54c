package harden

import (
	"fmt"
	"strings"

	"github.com/virec/virec/internal/cpu"
	"github.com/virec/virec/internal/mem/cache"
	"github.com/virec/virec/internal/telemetry"
)

// Watchdog detects livelock and deadlock: a system that ticks without any
// core committing an instruction for a whole window is stuck — threads
// may be spinning through context switches, the CSL may be masked forever
// by an outstanding BSI transaction, or a fill may never return. The
// simulation loop feeds it the system-wide committed-instruction count
// once per cycle; when Observe trips, the caller builds a Dump and aborts
// instead of burning cycles up to MaxCycles.
type Watchdog struct {
	// Window is the livelock threshold in cycles. Zero disables.
	Window uint64

	primed     bool
	lastTotal  uint64
	lastChange uint64
}

// Observe records the committed-instruction total at a cycle and reports
// whether the zero-progress window has elapsed.
func (w *Watchdog) Observe(cycle, totalCommitted uint64) bool {
	if w.Window == 0 {
		return false
	}
	if !w.primed || totalCommitted != w.lastTotal {
		w.primed = true
		w.lastTotal = totalCommitted
		w.lastChange = cycle
		return false
	}
	return cycle-w.lastChange >= w.Window
}

// LastProgress returns the cycle at which the committed count last moved.
func (w *Watchdog) LastProgress() uint64 { return w.lastChange }

// Deadline returns the cycle at which the zero-progress window elapses if
// nothing commits, for clock skip-ahead: a skip must never jump past it,
// so a livelock trips at exactly the same cycle as an unskipped run.
// ok=false when the watchdog is disabled or has not observed yet.
func (w *Watchdog) Deadline() (uint64, bool) {
	if w.Window == 0 || !w.primed {
		return 0, false
	}
	return w.lastChange + w.Window, true
}

// Dumper is implemented by register providers (and other components) that
// can contribute their internal state to diagnostic dumps.
type Dumper interface {
	DiagDump() string
}

// SelfChecker is implemented by components that can validate their own
// invariants; CheckSystem consults it on every sweep.
type SelfChecker interface {
	CheckInvariants() string
}

// SystemView is the window the watchdog and invariant checker get onto a
// composed system. Slices are indexed by core, one entry per core;
// Injectors is empty unless fault injection is on.
type SystemView struct {
	Cores     []*cpu.Core
	DCaches   []*cache.Cache
	ICaches   []*cache.Cache
	Injectors []*Injector

	// Tracer, when non-nil, contributes its most recent events to Dump so
	// a livelock report shows what the cores were actually doing.
	Tracer *telemetry.Tracer
}

// dumpTraceTail is how many trailing trace events a diagnostic dump embeds.
const dumpTraceTail = 64

// Dump renders a structured diagnostic snapshot: per-thread PC and state,
// pipeline stage occupancy, dcache residency/pin/MSHR counts, the
// register provider's internals (VRMU tag residency with C/T bits,
// in-flight BSI operations, rollback-queue depth, pending fills naming
// the registers a stuck thread is waiting on), and injector activity.
func Dump(v SystemView) string {
	var b strings.Builder
	for i, c := range v.Cores {
		fmt.Fprintf(&b, "core%d:\n", i)
		writeIndented(&b, c.DebugDump())
		if d, ok := c.Provider().(Dumper); ok {
			writeIndented(&b, d.DiagDump())
		}
		if i < len(v.DCaches) {
			dc := v.DCaches[i]
			fmt.Fprintf(&b, "  dcache: pinnedLines=%d (general=%d) mshrsInUse=%d idle=%v\n",
				dc.PinnedLines(), dc.PinnedGeneralRegLines(), dc.MSHRsInUse(), dc.Idle())
		}
		if i < len(v.Injectors) {
			writeIndented(&b, v.Injectors[i].DiagDump())
		}
	}
	if tail := v.Tracer.TailString(dumpTraceTail); tail != "" {
		fmt.Fprintf(&b, "last %d trace events (of %d emitted):\n", len(v.Tracer.LastN(dumpTraceTail)), v.Tracer.Total())
		b.WriteString(tail)
	}
	return b.String()
}

func writeIndented(b *strings.Builder, s string) {
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
}
