package harden

import (
	"fmt"

	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/mem/cache"
	"github.com/virec/virec/internal/telemetry"
)

// InjectStats counts the perturbations an injector applied.
type InjectStats struct {
	Jittered     uint64 // completions delayed
	JitterCycles uint64 // total extra cycles added
	BusyBursts   uint64 // port-busy windows opened
	BusyRejects  uint64 // accesses rejected inside busy windows
	Storms       uint64 // eviction storms fired
	StormFetches uint64 // conflicting line fetches the cache accepted
	BlockedFills uint64 // register fills rejected by BlockRegisterFills
}

// RegisterMetrics wires the injector's perturbation counters into a
// telemetry registry under prefix (e.g. "inject0").
func (inj *Injector) RegisterMetrics(r *telemetry.Registry, prefix string) {
	s := &inj.Stats
	r.Counter(prefix+"/jittered", &s.Jittered)
	r.Counter(prefix+"/jitter_cycles", &s.JitterCycles)
	r.Counter(prefix+"/busy_bursts", &s.BusyBursts)
	r.Counter(prefix+"/busy_rejects", &s.BusyRejects)
	r.Counter(prefix+"/storms", &s.Storms)
	r.Counter(prefix+"/storm_fetches", &s.StormFetches)
	r.Counter(prefix+"/blocked_fills", &s.BlockedFills)
}

// Injector sits between a core (pipeline, store queue and register
// provider) and its dcache, implementing mem.Device. It perturbs timing
// only: accesses may be rejected for a bounded number of cycles (every
// caller in the simulator retries), completions may be delayed, and
// extra conflicting fetches may be injected into the cache — but no
// request is ever dropped or reordered against its own dependencies, and
// no architectural state is touched. Two injectors with the same seed,
// plan and request stream behave identically.
type Injector struct {
	plan   FaultPlan
	rng    uint64
	target *cache.Cache

	numSets  int
	regSets  []int  // cache sets covered by the reserved register region
	stormTag uint64 // base tag for storm addresses, clear of real regions
	now      uint64
	busyTill uint64    // accesses rejected while now < busyTill
	delayed  evHeap    // completions held back for jitter
	free     []*jitter // jitter holders not in use
	seq      uint64

	// Stats is exported read-only for reporting.
	Stats InjectStats
}

// stormRegion is the base of the address range storm fetches target. It
// sits above every architectural region the simulator allocates (data
// slabs, reserved register regions, program text).
const stormRegion = 0xC000_0000

// NewInjector builds an injector over the given dcache with a per-core
// seed. The cache's geometry and register-region configuration steer the
// eviction storms toward the sets that hold pinned register lines.
func NewInjector(plan FaultPlan, seed uint64, target *cache.Cache) *Injector {
	cfg := target.Config()
	numSets := cfg.SizeBytes / mem.LineBytes / cfg.Assoc
	if numSets <= 0 {
		numSets = 1
	}
	inj := &Injector{
		plan:     plan,
		rng:      seed,
		target:   target,
		numSets:  numSets,
		stormTag: stormRegion/(uint64(numSets)*mem.LineBytes) + 1,
	}
	if cfg.RegRegionSize > 0 {
		seen := make(map[int]bool)
		for off := uint64(0); off < cfg.RegRegionSize; off += mem.LineBytes {
			set := int(uint64(cfg.RegRegionBase+mem.Addr(off)) / mem.LineBytes % uint64(numSets))
			if !seen[set] {
				seen[set] = true
				inj.regSets = append(inj.regSets, set)
			}
		}
	}
	return inj
}

// splitmixNext advances a splitmix64 stream in place.
func splitmixNext(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// next advances the injector's splitmix64 stream.
func (inj *Injector) next() uint64 { return splitmixNext(&inj.rng) }

// jitter is a recycled holder for one jittered access. Its done, bound
// once, stands in for the requester's Done at the cache and holds the
// completion back by extra cycles. The holder goes back on the injector's
// free list when the held completion fires, or at once when the cache
// rejects the access.
type jitter struct {
	inj   *Injector
	orig  func(uint64) // the requester's Done
	extra uint64
	done  func(uint64) // hold, bound once
}

func (j *jitter) hold(cycle uint64) {
	inj := j.inj
	inj.seq++
	inj.delayed.push(event{cycle: cycle + j.extra, seq: inj.seq, j: j})
}

// newJitter takes a jitter holder off the free list.
func (inj *Injector) newJitter() *jitter {
	if n := len(inj.free); n > 0 {
		j := inj.free[n-1]
		inj.free = inj.free[:n-1]
		return j
	}
	//virec:alloc-ok free-list growth, bounded by the jittered accesses in flight at once
	j := &jitter{inj: inj}
	j.done = j.hold
	return j
}

// Access forwards a request to the cache, possibly rejecting it (busy
// burst, blocked fill) or arming a delayed completion (jitter). A
// rejected request leaves the caller's retry loop to present it again, so
// its Done callback is restored untouched.
//
//virec:hotpath
func (inj *Injector) Access(r *mem.Request) bool {
	if inj.plan.BlockRegisterFills && r.RegisterFill && r.Kind == mem.Read && !r.PinSticky {
		inj.Stats.BlockedFills++
		return false
	}
	if inj.now < inj.busyTill {
		inj.Stats.BusyRejects++
		return false
	}
	if inj.plan.MaxJitter > 0 && r.Done != nil {
		if extra := inj.next() % (inj.plan.MaxJitter + 1); extra > 0 {
			j := inj.newJitter()
			j.orig, j.extra = r.Done, extra
			r.Done = j.done
			if !inj.target.Access(r) {
				r.Done = j.orig
				j.orig = nil
				inj.free = append(inj.free, j)
				return false
			}
			inj.Stats.Jittered++
			inj.Stats.JitterCycles += extra
			return true
		}
	}
	return inj.target.Access(r)
}

// Tick releases due delayed completions and rolls the dice for new busy
// bursts and eviction storms. The simulation loop calls it once per cycle
// after the memory hierarchy has ticked.
//
//virec:hotpath
func (inj *Injector) Tick(cycle uint64) {
	inj.now = cycle
	for len(inj.delayed) > 0 && inj.delayed[0].cycle <= cycle {
		ev := inj.delayed.pop()
		orig := ev.j.orig
		ev.j.orig = nil
		inj.free = append(inj.free, ev.j)
		orig(ev.cycle)
	}
	if inj.plan.BusyPermille > 0 && cycle >= inj.busyTill &&
		int(inj.next()%1000) < inj.plan.BusyPermille {
		inj.busyTill = cycle + 1 + inj.next()%inj.plan.MaxBusy
		inj.Stats.BusyBursts++
	}
	if inj.plan.StormPermille > 0 && int(inj.next()%1000) < inj.plan.StormPermille {
		inj.storm()
	}
}

// storm fetches StormLines conflicting lines into one target set (and its
// neighbours), forcing evictions. When the cache backs a register region,
// the target set is drawn from the sets its lines occupy, so pinned
// register lines face maximum replacement pressure; otherwise the set is
// random. Rejected fetches (ports, MSHRs) are dropped — the storm models
// opportunistic interference, not guaranteed traffic.
func (inj *Injector) storm() {
	inj.Stats.Storms++
	var set int
	if len(inj.regSets) > 0 {
		set = inj.regSets[inj.next()%uint64(len(inj.regSets))]
		// Wander to an adjacent set every few storms so the pressure
		// also lands beside the pinned sets, not only on them.
		if inj.next()%4 == 0 {
			set = (set + 1) % inj.numSets
		}
	} else {
		set = int(inj.next() % uint64(inj.numSets))
	}
	for k := 0; k < inj.plan.StormLines; k++ {
		tag := inj.stormTag + inj.next()%4096
		addr := mem.Addr((tag*uint64(inj.numSets) + uint64(set)) * mem.LineBytes)
		//virec:alloc-ok a storm fetch has no Done, so nothing hands it back for reuse
		req := &mem.Request{Addr: addr, Size: mem.LineBytes, Kind: mem.Read}
		if inj.target.Access(req) {
			inj.Stats.StormFetches++
		}
	}
}

// NextFire reports the first cycle in (now, horizon] at which Tick would
// do observable work: release a held completion, open a busy burst, or
// fire an eviction storm. The dice for future cycles are previewed on a
// copy of the RNG stream in exactly Tick's draw order, so the prediction
// is bit-exact; the real draws happen in SkipTo and in the normal Tick at
// the fire cycle. ok=false means nothing fires within the horizon.
func (inj *Injector) NextFire(horizon uint64) (uint64, bool) {
	ev, ok := uint64(0), false
	if len(inj.delayed) > 0 {
		c := inj.delayed[0].cycle
		if c <= inj.now {
			c = inj.now + 1
		}
		ev, ok = c, true
		if c < horizon {
			horizon = c
		}
	}
	if inj.plan.BusyPermille > 0 || inj.plan.StormPermille > 0 {
		rng := inj.rng
		for c := inj.now + 1; c <= horizon; c++ {
			fired := false
			if inj.plan.BusyPermille > 0 && c >= inj.busyTill &&
				int(splitmixNext(&rng)%1000) < inj.plan.BusyPermille {
				fired = true
			}
			if !fired && inj.plan.StormPermille > 0 &&
				int(splitmixNext(&rng)%1000) < inj.plan.StormPermille {
				fired = true
			}
			if fired {
				if !ok || c < ev {
					ev, ok = c, true
				}
				break
			}
		}
	}
	return ev, ok
}

// SkipTo advances the injector's clock and RNG stream over the skipped
// cycles (now, upTo], drawing exactly the dice each normally ticked cycle
// would have drawn. The caller must have bounded the skip with NextFire:
// none of the skipped cycles may fire.
func (inj *Injector) SkipTo(upTo uint64) {
	if len(inj.delayed) > 0 && inj.delayed[0].cycle <= upTo {
		panic("harden: SkipTo across a held completion")
	}
	if inj.plan.BusyPermille > 0 || inj.plan.StormPermille > 0 {
		for c := inj.now + 1; c <= upTo; c++ {
			if inj.plan.BusyPermille > 0 && c >= inj.busyTill &&
				int(inj.next()%1000) < inj.plan.BusyPermille {
				panic("harden: SkipTo across a busy-burst fire")
			}
			if inj.plan.StormPermille > 0 &&
				int(inj.next()%1000) < inj.plan.StormPermille {
				panic("harden: SkipTo across an eviction-storm fire")
			}
		}
	}
	if upTo > inj.now {
		inj.now = upTo
	}
}

// Pending returns the number of completions currently held back by
// jitter (diagnostics and tests).
func (inj *Injector) Pending() int { return len(inj.delayed) }

// DiagDump summarizes the injector's activity for diagnostic reports.
func (inj *Injector) DiagDump() string {
	s := inj.Stats
	return fmt.Sprintf(
		"faults: jittered=%d (+%d cycles) busyBursts=%d busyRejects=%d storms=%d stormFetches=%d blockedFills=%d heldCompletions=%d",
		s.Jittered, s.JitterCycles, s.BusyBursts, s.BusyRejects, s.Storms, s.StormFetches, s.BlockedFills, len(inj.delayed))
}

// event is a held completion: its jitter holder fires at cycle.
type event struct {
	cycle uint64
	seq   uint64
	j     *jitter
}

// evHeap is a min-heap ordered by (cycle, seq), with monomorphic sift
// routines like the cache's and DRAM's: container/heap would box every
// held completion into an interface value.
type evHeap []event

func (h evHeap) less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}

//virec:hotpath
func (h *evHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

//virec:hotpath
func (h *evHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop the holder reference
	s = s[:n]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}
