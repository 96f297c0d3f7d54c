package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"slices"
)

// ChromeWriter streams trace events as Chrome trace_event JSON (the
// "JSON Array Format" accepted by chrome://tracing and Perfetto). It is
// incremental — feed it batches from a Tracer sink, then Close.
//
// Lane mapping (one process per core, pid = core index):
//
//	tid 1..4    pipeline stage lanes (decode, execute, mem, commit):
//	            instant events, one per stage occupancy.
//	tid 50      dcache lane: pin/unpin instants.
//	tid 90      register-file lane: rf_miss/victim/fill/spill instants.
//	tid 100+k   thread k's lane: a complete "X" span per scheduled run,
//	            reconstructed from switch events, plus load-miss instants.
//
// Timestamps are simulation cycles reported as microseconds (ts = cycle),
// so one tracing-UI microsecond reads as one cycle.
type ChromeWriter struct {
	w     *bufio.Writer
	first bool
	// per-(core,thread) start cycle of the currently running span
	running map[int64]uint64
	// lanes already announced via metadata events
	named map[int64]bool
	err   error
}

// NewChromeWriter starts the JSON array on w.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	cw := &ChromeWriter{
		w:       bufio.NewWriter(w),
		first:   true,
		running: make(map[int64]uint64),
		named:   make(map[int64]bool),
	}
	_, cw.err = cw.w.WriteString("[\n")
	return cw
}

func laneKey(core, tid int32) int64 { return int64(core)<<32 | int64(uint32(tid)) }

func (cw *ChromeWriter) sep() {
	if cw.first {
		cw.first = false
		return
	}
	cw.w.WriteString(",\n")
}

// meta announces a lane name once per (core, tid).
func (cw *ChromeWriter) meta(core, tid int32, name string) {
	k := laneKey(core, tid)
	if cw.named[k] {
		return
	}
	cw.named[k] = true
	cw.sep()
	fmt.Fprintf(cw.w,
		`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`,
		core, tid, name)
}

// instant emits a ph:"i" thread-scoped instant event.
func (cw *ChromeWriter) instant(name string, cycle uint64, core, tid int32, args string) {
	cw.sep()
	fmt.Fprintf(cw.w,
		`{"name":%q,"ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d,"args":{%s}}`,
		name, cycle, core, tid, args)
}

// span emits a ph:"X" complete event.
func (cw *ChromeWriter) span(name string, start, dur uint64, core, tid int32, args string) {
	cw.sep()
	fmt.Fprintf(cw.w,
		`{"name":%q,"ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d,"args":{%s}}`,
		name, start, dur, core, tid, args)
}

var stageNames = [4]string{"decode", "execute", "mem", "commit"}

const (
	laneDCache  int32 = 50
	laneRegfile int32 = 90
	laneThread0 int32 = 100
)

// Write converts a batch of events. Batches must arrive in emit order (a
// Tracer sink guarantees this).
func (cw *ChromeWriter) Write(evs []Event) error {
	if cw.err != nil {
		return cw.err
	}
	for _, e := range evs {
		switch e.Kind {
		case EvStage:
			if e.Arg0 > 3 {
				continue
			}
			tid := int32(1 + e.Arg0)
			cw.meta(e.Core, tid, "stage:"+stageNames[e.Arg0])
			cw.instant(stageNames[e.Arg0], e.Cycle, e.Core, tid,
				fmt.Sprintf(`"thread":%d,"pc":%d,"seq":%d`, e.Thread, e.Arg1, e.Arg2))
		case EvSwitch:
			// Close the previous thread's span, open the next.
			prev := int32(int64(e.Arg0))
			if prev >= 0 {
				k := laneKey(e.Core, laneThread0+prev)
				if start, ok := cw.running[k]; ok {
					delete(cw.running, k)
					dur := e.Cycle - start
					if dur == 0 {
						dur = 1
					}
					cw.span("run", start, dur, e.Core, laneThread0+prev,
						fmt.Sprintf(`"thread":%d`, prev))
				}
			}
			if e.Thread >= 0 {
				tid := laneThread0 + e.Thread
				cw.meta(e.Core, tid, fmt.Sprintf("thread %d", e.Thread))
				cw.running[laneKey(e.Core, tid)] = e.Cycle
				cw.instant("switch", e.Cycle, e.Core, tid,
					fmt.Sprintf(`"from":%d,"reason":%d`, prev, e.Arg1))
			}
		case EvPin, EvUnpin:
			cw.meta(e.Core, laneDCache, "dcache pins")
			cw.instant(e.Kind.String(), e.Cycle, e.Core, laneDCache,
				fmt.Sprintf(`"addr":%d`, e.Arg0))
		case EvRFMiss, EvVictim, EvFill, EvSpill, EvFillDone:
			cw.meta(e.Core, laneRegfile, "register file")
			cw.instant(e.Kind.String(), e.Cycle, e.Core, laneRegfile,
				fmt.Sprintf(`"thread":%d,"arg0":%d,"arg1":%d,"arg2":%d`,
					e.Thread, e.Arg0, e.Arg1, e.Arg2))
		case EvLoadMiss:
			tid := laneThread0 + e.Thread
			if e.Thread < 0 {
				tid = laneRegfile
			}
			cw.instant("load_miss", e.Cycle, e.Core, tid,
				fmt.Sprintf(`"addr":%d`, e.Arg0))
		}
	}
	if err := cw.w.Flush(); err != nil && cw.err == nil {
		cw.err = err
	}
	return cw.err
}

// Close ends open thread spans at endCycle and terminates the JSON array.
func (cw *ChromeWriter) Close(endCycle uint64) error {
	if cw.err != nil {
		return cw.err
	}
	// Deterministic order: laneKey sorts by (core, tid).
	for _, k := range slices.Sorted(maps.Keys(cw.running)) {
		start := cw.running[k]
		core := int32(k >> 32)
		tid := int32(uint32(k))
		dur := uint64(1)
		if endCycle > start {
			dur = endCycle - start
		}
		cw.span("run", start, dur, core, tid,
			fmt.Sprintf(`"thread":%d`, tid-laneThread0))
	}
	cw.w.WriteString("\n]\n")
	if err := cw.w.Flush(); err != nil && cw.err == nil {
		cw.err = err
	}
	return cw.err
}
