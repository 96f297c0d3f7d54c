package harden

import (
	"fmt"
	"sync"

	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/mem/cache"
	"github.com/virec/virec/internal/telemetry"
)

// InjectStats counts the perturbations an injector applied. Each field is
// a counter, registered under its metric tag by RegisterMetrics.
type InjectStats struct {
	Jittered     uint64 `metric:"jittered"`      // completions delayed
	JitterCycles uint64 `metric:"jitter_cycles"` // total extra cycles added
	BusyBursts   uint64 `metric:"busy_bursts"`   // port-busy windows opened
	BusyRejects  uint64 `metric:"busy_rejects"`  // accesses rejected inside busy windows
	Storms       uint64 `metric:"storms"`        // eviction storms fired
	StormFetches uint64 `metric:"storm_fetches"` // conflicting line fetches the cache accepted
	BlockedFills uint64 `metric:"blocked_fills"` // register fills rejected by BlockRegisterFills
}

// RegisterMetrics wires the injector's perturbation counters into a
// telemetry registry under prefix (e.g. "inject0").
func (inj *Injector) RegisterMetrics(r *telemetry.Registry, prefix string) {
	r.Stats(prefix, &inj.Stats)
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
	busyTill uint64                  // accesses rejected while now < busyTill
	delayed  mem.EventQueue[*jitter] // completions held back for jitter
	free     []*jitter               // jitter holders not in use
	fetches  []*stormFetch           // storm fetches not in flight

	// Stats is exported read-only for reporting.
	Stats InjectStats
}

// stormRegion is the base of the address range storm fetches target. It
// sits above every architectural region the simulator allocates (data
// slabs, reserved register regions, program text).
const stormRegion = 0xC000_0000

// injectorPool holds released injectors.
var injectorPool sync.Pool

// NewInjector builds an injector over the given dcache with a per-core
// seed. The cache's geometry and register-region configuration steer the
// eviction storms toward the sets that hold pinned register lines. It
// rebuilds a released injector when there is one: its idle jitter holders
// and storm fetches, still bound to it, and its set list's storage carry
// over, but a completion it was holding back does not. That is dropped,
// never completed, so no holder is issued twice.
func NewInjector(plan FaultPlan, seed uint64, target *cache.Cache) *Injector {
	cfg := target.Config()
	numSets := cfg.SizeBytes / mem.LineBytes / cfg.Assoc
	if numSets <= 0 {
		numSets = 1
	}
	inj, _ := injectorPool.Get().(*Injector)
	if inj == nil {
		inj = new(Injector)
	}
	*inj = Injector{
		plan:     plan,
		rng:      seed,
		target:   target,
		numSets:  numSets,
		regSets:  inj.regSets[:0],
		stormTag: stormRegion/(uint64(numSets)*mem.LineBytes) + 1,
		delayed:  inj.delayed.Emptied(),
		free:     inj.free,
		fetches:  inj.fetches,
	}
	// The region's lines fall in consecutive sets, wrapping at numSets, so
	// its first numSets lines name each set it covers once, in the order
	// the lines reach them.
	first := uint64(cfg.RegRegionBase) / mem.LineBytes
	lines := (cfg.RegRegionSize + mem.LineBytes - 1) / mem.LineBytes
	for i := uint64(0); i < min(lines, uint64(numSets)); i++ {
		inj.regSets = append(inj.regSets, int((first+i)%uint64(numSets)))
	}
	return inj
}

// Release hands the injector to the next NewInjector. Only its owner may
// release it, once, when nothing uses it any more.
func (inj *Injector) Release() { injectorPool.Put(inj) }

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

func (j *jitter) hold(cycle uint64) { j.inj.delayed.Push(cycle+j.extra, j) }

// stormFetch is a recycled storm fetch. Its Done, bound once, puts it
// back on the injector's free list when the cache completes it.
type stormFetch struct {
	inj  *Injector
	req  mem.Request
	done func(uint64) // complete, bound once
}

func (f *stormFetch) complete(uint64) { f.inj.fetches = append(f.inj.fetches, f) }

// newStormFetch takes a storm fetch off the free list.
func (inj *Injector) newStormFetch() *stormFetch {
	if n := len(inj.fetches); n > 0 {
		f := inj.fetches[n-1]
		inj.fetches = inj.fetches[:n-1]
		return f
	}
	// Free-list growth, bounded by the storm fetches in flight at once.
	f := &stormFetch{inj: inj}
	f.done = f.complete
	return f
}

// newJitter takes a jitter holder off the free list.
func (inj *Injector) newJitter() *jitter {
	if n := len(inj.free); n > 0 {
		j := inj.free[n-1]
		inj.free = inj.free[:n-1]
		return j
	}
	// Free-list growth, bounded by the jittered accesses in flight at once.
	j := &jitter{inj: inj}
	j.done = j.hold
	return j
}

// Access forwards a request to the cache, possibly rejecting it (busy
// burst, blocked fill) or arming a delayed completion (jitter). A
// rejected request leaves the caller's retry loop to present it again, so
// its Done callback is restored untouched.
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
func (inj *Injector) Tick(cycle uint64) {
	inj.now = cycle
	for inj.delayed.Due(cycle) {
		at, j := inj.delayed.Pop()
		orig := j.orig
		j.orig = nil
		inj.free = append(inj.free, j)
		orig(at)
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
		f := inj.newStormFetch()
		f.req = mem.Request{Addr: addr, Size: mem.LineBytes, Kind: mem.Read, Done: f.done}
		if inj.target.Access(&f.req) {
			inj.Stats.StormFetches++
		} else {
			inj.fetches = append(inj.fetches, f)
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
	ev, ok := inj.delayed.Next(inj.now)
	if ok && ev < horizon {
		horizon = ev
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
	if inj.delayed.Due(upTo) {
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

// DiagDump summarizes the injector's activity for diagnostic reports.
func (inj *Injector) DiagDump() string {
	s := inj.Stats
	return fmt.Sprintf(
		"faults: jittered=%d (+%d cycles) busyBursts=%d busyRejects=%d storms=%d stormFetches=%d blockedFills=%d heldCompletions=%d",
		s.Jittered, s.JitterCycles, s.BusyBursts, s.BusyRejects, s.Storms, s.StormFetches, s.BlockedFills, inj.delayed.Len())
}
