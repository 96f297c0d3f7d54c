// Package ooo models the out-of-order baseline of Figure 1 (an Arm
// Neoverse-N1-flavoured core, Table 1) as a trace-driven dataflow limit
// study: instructions issue as soon as their operands are ready, subject
// to fetch width, reorder-buffer capacity, load-queue capacity and MSHR
// (memory-level-parallelism) limits. Branch prediction is assumed perfect,
// which is generous to the OoO core — the paper's point survives, since
// even so the OoO hits a memory-dependence ceiling on these kernels while
// costing 19x the area.
//
// The memory side is a two-level functional cache (32 KB L1, 1 MB L2 with
// a stride prefetcher) over a fixed main-memory latency; the near-memory
// cores' advantage (lower latency, no deep hierarchy) is the paper's
// premise.
package ooo

import (
	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/interp"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/mem"
)

// Config parameterizes the OoO model (defaults follow Table 1).
type Config struct {
	IssueWidth int
	ROBSize    int
	LQSize     int
	MSHRs      int

	L1HitCycles int
	L2HitCycles int
	MemCycles   int // main-memory latency seen by the host core
	PrefetchDeg int // stride prefetcher degree at the L2
	FreqGHz     float64
	MaxInsts    uint64
}

// DefaultConfig returns Table 1's OoO core.
func DefaultConfig() Config {
	return Config{
		IssueWidth:  8,
		ROBSize:     224,
		LQSize:      113,
		MSHRs:       32,
		L1HitCycles: 4,
		L2HitCycles: 12,
		MemCycles:   160, // host-side DRAM round trip at 2 GHz
		PrefetchDeg: 8,
		FreqGHz:     2.0,
		MaxInsts:    10_000_000,
	}
}

// Result summarizes an OoO run.
type Result struct {
	Insts  uint64
	Cycles uint64
	TimeNs float64
	IPC    float64
	L1Hits uint64
	L1Miss uint64
	L2Hits uint64
	L2Miss uint64
}

// funcCache is a tag-only LRU cache for hit/miss classification.
type funcCache struct {
	sets    [][]funcLine
	numSets int
	clock   uint64
}

type funcLine struct {
	tag     uint64
	valid   bool
	lastUse uint64
}

func newFuncCache(sizeBytes, assoc int) *funcCache {
	numSets := sizeBytes / mem.LineBytes / assoc
	if numSets < 1 {
		numSets = 1
	}
	sets := make([][]funcLine, numSets)
	backing := make([]funcLine, numSets*assoc)
	for i := range sets {
		sets[i], backing = backing[:assoc], backing[assoc:]
	}
	return &funcCache{sets: sets, numSets: numSets}
}

// access returns true on hit and installs the line on miss.
func (c *funcCache) access(a mem.Addr) bool {
	line := uint64(a) / mem.LineBytes
	set := int(line % uint64(c.numSets))
	tag := line / uint64(c.numSets)
	c.clock++
	victim, oldest := 0, ^uint64(0)
	for w := range c.sets[set] {
		ln := &c.sets[set][w]
		if ln.valid && ln.tag == tag {
			ln.lastUse = c.clock
			return true
		}
		if !ln.valid {
			victim, oldest = w, 0
		} else if ln.lastUse < oldest {
			victim, oldest = w, ln.lastUse
		}
	}
	c.sets[set][victim] = funcLine{tag: tag, valid: true, lastUse: c.clock}
	return false
}

// strideDetector is the L2 stride prefetcher (per-PC stride table).
type strideDetector struct {
	last   map[int]mem.Addr
	stride map[int]int64
}

func newStrideDetector() *strideDetector {
	return &strideDetector{last: make(map[int]mem.Addr), stride: make(map[int]int64)}
}

// observe returns the predicted prefetch addresses for this access.
func (s *strideDetector) observe(pc int, a mem.Addr, degree int) []mem.Addr {
	defer func() { s.last[pc] = a }()
	prev, ok := s.last[pc]
	if !ok {
		return nil
	}
	st := int64(a) - int64(prev)
	if st == 0 || st > 4096 || st < -4096 {
		delete(s.stride, pc)
		return nil
	}
	if s.stride[pc] != st {
		s.stride[pc] = st
		return nil
	}
	out := make([]mem.Addr, 0, degree)
	for d := 1; d <= degree; d++ {
		out = append(out, mem.Addr(int64(a)+st*int64(d)))
	}
	return out
}

// Run executes prog from ctx and returns the modeled timing.
func Run(cfg Config, prog *asm.Program, ctx *interp.Context, m *mem.Memory) Result {
	def := DefaultConfig()
	if cfg.IssueWidth == 0 {
		cfg = def
	}
	l1 := newFuncCache(32*1024, 4)
	l2 := newFuncCache(1024*1024, 8)
	pf := newStrideDetector()

	regReady := [isa.NumRegs]uint64{}
	var flagReady uint64
	retireAt := make([]uint64, cfg.ROBSize) // ring: completion of inst i-ROB
	loadDone := make([]uint64, cfg.LQSize)  // ring of load completions
	mshrFree := make([]uint64, cfg.MSHRs)   // ring of miss completions

	var res Result
	var lastComplete uint64
	var idx uint64
	var srcBuf, dstBuf [6]isa.Reg

	latencyOf := func(pc int, a mem.Addr) uint64 {
		if l1.access(a) {
			res.L1Hits++
			return uint64(cfg.L1HitCycles)
		}
		res.L1Miss++
		for _, p := range pf.observe(pc, a, cfg.PrefetchDeg) {
			if !l2.access(p) {
				res.L2Miss++ // prefetch fill
			} else {
				res.L2Hits++
			}
		}
		if l2.access(a) {
			res.L2Hits++
			return uint64(cfg.L1HitCycles + cfg.L2HitCycles)
		}
		res.L2Miss++
		return uint64(cfg.L1HitCycles + cfg.L2HitCycles + cfg.MemCycles)
	}

	interp.Precode(prog).Run(ctx, m, cfg.MaxInsts, func(e interp.TraceEntry) {
		in := e.Inst
		// Dispatch constraints: fetch bandwidth and ROB occupancy.
		issue := idx / uint64(cfg.IssueWidth)
		if rob := retireAt[idx%uint64(cfg.ROBSize)]; rob > issue {
			issue = rob
		}
		// Operand readiness.
		for _, r := range in.SrcRegs(srcBuf[:0]) {
			if r != isa.XZR && regReady[r] > issue {
				issue = regReady[r]
			}
		}
		if in.ReadsFlags() && flagReady > issue {
			issue = flagReady
		}

		var complete uint64
		switch {
		case in.IsLoad():
			if lq := loadDone[idx%uint64(cfg.LQSize)]; lq > issue {
				issue = lq
			}
			lat := latencyOf(e.PC, e.Addr)
			if lat > uint64(cfg.L1HitCycles) {
				// A miss needs an MSHR slot.
				slot := idx % uint64(cfg.MSHRs)
				if mshrFree[slot] > issue {
					issue = mshrFree[slot]
				}
				mshrFree[slot] = issue + lat
			}
			complete = issue + lat
			loadDone[idx%uint64(cfg.LQSize)] = complete
		case in.IsStore():
			latencyOf(e.PC, e.Addr) // warms the caches; stores retire fast
			complete = issue + 1
		case in.Op == isa.MUL, in.Op == isa.MADD:
			complete = issue + 3
		case in.Op == isa.UDIV, in.Op == isa.SDIV,
			in.Op == isa.FDIV, in.Op == isa.FSQRT:
			complete = issue + 12
		case in.Op == isa.FADD, in.Op == isa.FSUB, in.Op == isa.FMUL,
			in.Op == isa.FMADD, in.Op == isa.SCVTF, in.Op == isa.FCVTZS:
			complete = issue + 4
		default:
			complete = issue + 1
		}

		for _, r := range in.DstRegs(dstBuf[:0]) {
			if r != isa.XZR {
				regReady[r] = complete
			}
		}
		if in.SetsFlags() {
			flagReady = complete
		}
		retireAt[idx%uint64(cfg.ROBSize)] = complete
		if complete > lastComplete {
			lastComplete = complete
		}
		idx++
	})

	res.Insts = idx
	res.Cycles = lastComplete
	if res.Cycles > 0 {
		res.IPC = float64(res.Insts) / float64(res.Cycles)
	}
	if cfg.FreqGHz > 0 {
		res.TimeNs = float64(res.Cycles) / cfg.FreqGHz
	}
	return res
}
