package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// EventKind identifies what a trace event records. The numeric values are
// part of the JSONL schema; append new kinds, never renumber.
type EventKind uint8

const (
	// EvStage: an instruction occupied a pipeline stage this cycle.
	// Arg0 = stage (see Stage* constants), Arg1 = pc, Arg2 = sequence number.
	EvStage EventKind = iota
	// EvSwitch: the CSL switched the core to Thread. Arg0 = previous
	// thread (as uint64(int64); ^0 when none), Arg1 = reason (Switch* constants).
	EvSwitch
	// EvRFMiss: a register read/write missed the VRMU tag store.
	// Arg0 = architectural register, Arg1 = 0 for a source, 1 for a
	// destination.
	EvRFMiss
	// EvVictim: the VRMU evicted a register line to make room. Thread =
	// the victim's thread, Arg0 = victim register, Arg1 = 1 if dirty.
	EvVictim
	// EvFill: the BSI issued a register fill from the backing store.
	// Arg0 = backing-store address, Arg1 = register (0 for a
	// system-register line).
	EvFill
	// EvSpill: the BSI issued a register spill to the backing store.
	// Arg0 = backing-store address, Arg1 = register (0 for a
	// system-register line).
	EvSpill
	// EvFillDone: a fill completed. Arg0 = backing-store address,
	// Arg1 = latency in cycles from issue to completion, Arg2 = register.
	EvFillDone
	// EvPin: a dcache line holding register state became pinned.
	// Arg0 = line base address.
	EvPin
	// EvUnpin: a pinned dcache line became unpinned. Arg0 = line base address.
	EvUnpin
	// EvLoadMiss: a data load missed the dcache and signalled the CSL.
	// Arg0 = address.
	EvLoadMiss

	evKindCount
)

// Pipeline stage codes for EvStage's Arg0.
const (
	StageDecode uint64 = iota
	StageExecute
	StageMem
	StageCommit
)

// Context-switch reason codes for EvSwitch's Arg1.
const (
	SwitchLoadMiss uint64 = iota
	SwitchYield
	SwitchHalt
	SwitchStart
)

var kindNames = [evKindCount]string{
	EvStage:    "stage",
	EvSwitch:   "switch",
	EvRFMiss:   "rf_miss",
	EvVictim:   "victim",
	EvFill:     "fill",
	EvSpill:    "spill",
	EvFillDone: "fill_done",
	EvPin:      "pin",
	EvUnpin:    "unpin",
	EvLoadMiss: "load_miss",
}

// String returns the stable schema name of the kind.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind%d", int(k))
}

// Event is one trace record. Fixed-size and pointer-free so the ring
// buffer is a flat slice and emission never allocates.
type Event struct {
	Cycle  uint64
	Kind   EventKind
	Core   int32
	Thread int32
	Arg0   uint64
	Arg1   uint64
	Arg2   uint64
}

// NoThread marks events not attributable to a thread.
const NoThread int32 = -1

// Tracer is a cycle-level event recorder backed by a fixed-capacity ring.
// A nil *Tracer is the disabled state: every emit site guards with a nil
// check, so the disabled path costs one predictable branch and zero
// allocations.
//
// Two modes:
//
//   - Ring mode (no sink): the buffer wraps, keeping the most recent
//     events. This feeds the watchdog's diagnostic dump — when a livelock
//     fires, the tail shows what the core was doing.
//   - Streaming mode (SetSink): when the buffer fills it is handed to the
//     sink and reset, so a full run's trace can be written out with
//     bounded memory.
//
// Not safe for concurrent use; each simulated system owns its tracer and
// systems never share goroutines.
type Tracer struct {
	buf   []Event
	next  int  // ring write index
	wrap  bool // ring has wrapped (ring mode only)
	total uint64
	sink  func([]Event)
}

// NewTracer returns a tracer with the given ring capacity (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// SetSink switches the tracer to streaming mode: whenever the ring fills,
// the batch is passed to fn (valid only for the duration of the call) and
// the ring resets. Call Flush at end of run to drain the partial batch.
func (t *Tracer) SetSink(fn func([]Event)) {
	t.sink = fn
}

// Emit records one event. Nil-safe and allocation-free.
func (t *Tracer) Emit(cycle uint64, kind EventKind, core, thread int32, a0, a1, a2 uint64) {
	if t == nil {
		return
	}
	t.buf[t.next] = Event{Cycle: cycle, Kind: kind, Core: core, Thread: thread, Arg0: a0, Arg1: a1, Arg2: a2}
	t.total++
	t.next++
	if t.next == len(t.buf) {
		if t.sink != nil {
			t.sink(t.buf)
			t.next = 0
			return
		}
		t.next = 0
		t.wrap = true
	}
}

// Flush drains any buffered events to the sink (streaming mode only).
func (t *Tracer) Flush() {
	if t == nil || t.sink == nil || t.next == 0 {
		return
	}
	t.sink(t.buf[:t.next])
	t.next = 0
}

// Total returns the number of events emitted over the tracer's lifetime
// (including any overwritten by ring wrap or handed to the sink).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// LastN returns up to n most recent events, oldest first. Ring mode only
// sees what the ring still holds; streaming mode sees the undrained tail.
func (t *Tracer) LastN(n int) []Event {
	if t == nil || n <= 0 {
		return nil
	}
	var held int
	if t.wrap {
		held = len(t.buf)
	} else {
		held = t.next
	}
	if n > held {
		n = held
	}
	out := make([]Event, n)
	start := t.next - n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < n; i++ {
		out[i] = t.buf[(start+i)%len(t.buf)]
	}
	return out
}

// TailString renders the last n events as indented text lines for
// embedding in diagnostic dumps.
func (t *Tracer) TailString(n int) string {
	evs := t.LastN(n)
	if len(evs) == 0 {
		return ""
	}
	var b strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&b, "  cycle %-10d core%d thread %-3d %-10s args=[%#x %#x %#x]\n",
			e.Cycle, e.Core, e.Thread, e.Kind, e.Arg0, e.Arg1, e.Arg2)
	}
	return b.String()
}

// WriteEventsJSONL writes events as one JSON object per line with a fixed
// field order, so identical runs produce identical bytes.
func WriteEventsJSONL(w io.Writer, evs []Event) error {
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriter(w)
		defer bw.Flush()
	}
	for _, e := range evs {
		if _, err := fmt.Fprintf(bw,
			`{"cycle":%d,"kind":%q,"core":%d,"thread":%d,"arg0":%d,"arg1":%d,"arg2":%d}`+"\n",
			e.Cycle, e.Kind.String(), e.Core, e.Thread, e.Arg0, e.Arg1, e.Arg2); err != nil {
			return err
		}
	}
	if !ok {
		return bw.Flush()
	}
	return nil
}
