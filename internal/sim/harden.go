// Hardening integration: rich error types carrying diagnostic dumps, and
// the view the harden package gets onto a composed system. System.Exec wires
// the fault injector, livelock watchdog and continuous invariant checker
// from internal/harden into the cycle loop.
package sim

import (
	"fmt"
	"strings"

	"github.com/virec/virec/internal/harden"
)

// CrashError wraps a panic raised inside the simulation loop (for
// example the ViReC provider detecting a read of a non-resident register,
// or the rollback queue detecting an out-of-order commit). Library users
// get a structured error with a full diagnostic dump and the original
// stack instead of a process-killing stack trace.
type CrashError struct {
	Panic any    // the recovered panic value
	Cycle uint64 // cycle at which the panic fired
	Dump  string // harden.Dump snapshot taken at recovery
	Stack []byte // goroutine stack at the panic site

	// Scenario names the configuration the crash occurred under
	// (kind/workload/tN/seed): the pointer for replaying it.
	Scenario string
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("sim: crash at cycle %d: %v\nscenario: %s\ndiagnostic dump:\n%s",
		e.Cycle, e.Panic, e.Scenario, e.Dump)
}

// scenario names the configuration a crash occurred under, in a stable
// replayable form: kind/workload/tN/seed.
func (c *Config) scenario() string {
	name := "?"
	if c.Workload != nil {
		name = c.Workload.Name
	}
	return fmt.Sprintf("%s/%s/t%d/seed=%#x", c.Kind, name, c.ThreadsPerCore, c.Seed)
}

// LivelockError reports that the watchdog saw zero committed instructions
// across its whole window. Dump names the stuck thread(s) and, for ViReC
// cores, the non-resident registers they are waiting on.
type LivelockError struct {
	Cycle        uint64 // cycle at which the watchdog tripped
	Window       uint64 // configured zero-progress window
	LastProgress uint64 // last cycle any core committed an instruction
	Dump         string
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf(
		"sim: livelock: no instruction committed for %d cycles (last progress at cycle %d, detected at cycle %d)\ndiagnostic dump:\n%s",
		e.Window, e.LastProgress, e.Cycle, e.Dump)
}

// InvariantError reports a violated consistency condition, found either
// by the continuous checker mid-run or by the final sweep.
type InvariantError struct {
	Cycle     uint64
	Violation string
	Dump      string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("sim: invariant violated at cycle %d: %s\ndiagnostic dump:\n%s",
		e.Cycle, e.Violation, e.Dump)
}

// view exposes the system to the hardening layer's dump and sweep.
func (s *System) view() harden.SystemView {
	return harden.SystemView{
		Cores:     s.Cores,
		DCaches:   s.DCaches,
		ICaches:   s.ICaches,
		Injectors: s.Injectors,
		Tracer:    s.Tracer,
	}
}

// maxCyclesError describes a MaxCycles exhaustion with enough context to
// diagnose a stuck run even with the watchdog disabled: per-core
// committed-instruction counts and the cycle each core last committed.
func (s *System) maxCyclesError(insts, lastCommit []uint64) error {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %s/%s did not finish within %d cycles;",
		s.cfg.Kind, s.cfg.Workload.Name, s.cfg.MaxCycles)
	for i := range insts {
		fmt.Fprintf(&b, " core%d committed %d insts (last commit at cycle %d),",
			i, insts[i], lastCommit[i])
	}
	b.WriteString(" set Harden.WatchdogWindow for a full diagnostic dump")
	return fmt.Errorf("%s", b.String())
}
