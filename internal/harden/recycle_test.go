package harden

import (
	"runtime"
	"testing"

	"github.com/virec/virec/internal/mem"
	"github.com/virec/virec/internal/mem/cache"
)

// raceEnabled is set when the race detector is on (race_test.go). Its
// sync.Pool drops a quarter of what it is given, so an injector is
// sometimes built anew under it.
var raceEnabled bool

// TestReleaseRecyclesInjector checks that an injector built after a
// release starts as a new one would: it holds no completion back, and
// over the same requests it jitters, rejects and storms exactly as a
// fresh injector with the same seed and plan. The completions held at the
// release are dropped with their holders, so none fires into the new
// injector. Once released injectors are pooled, building one allocates
// nothing.
func TestReleaseRecyclesInjector(t *testing.T) {
	plan := DefaultPlan()
	plan.MaxJitter = 40
	cfg := cache.Config{Name: "l1", SizeBytes: 2048, Assoc: 2, HitLatency: 2, MSHRs: 4, Ports: 1,
		RegRegionBase: 0x4000_0000, RegRegionSize: 40 * mem.LineBytes}

	oldDone := 0
	oldMem := mem.NewDelayDevice(20)
	old := NewInjector(plan, 7, cache.New(cfg, oldMem))
	var reqs [8]mem.Request
	for i := range reqs {
		reqs[i] = mem.Request{Addr: mem.Addr(i) * mem.LineBytes, Size: 8, Kind: mem.Read,
			Done: func(uint64) { oldDone++ }}
	}
	for cycle, next := uint64(0), 0; old.delayed.Len() == 0 || next < len(reqs); cycle++ {
		if cycle > 10_000 {
			t.Fatalf("the old injector held no completion back in %d cycles", cycle)
		}
		if next < len(reqs) && old.Access(&reqs[next]) {
			next++
		}
		old.target.Tick(cycle)
		oldMem.Tick(cycle)
		old.Tick(cycle)
	}
	held := old.delayed.Len()
	doneAtRelease := oldDone
	old.target.Release()
	old.Release()

	rebuiltMem := mem.NewDelayDevice(20)
	rebuilt := NewInjector(plan, 11, cache.New(cfg, rebuiltMem))
	if rebuilt.delayed.Len() != 0 || rebuilt.now != 0 || rebuilt.busyTill != 0 || rebuilt.Stats != (InjectStats{}) {
		t.Fatalf("the rebuilt injector starts busy: %s, now %d, busy till %d",
			rebuilt.DiagDump(), rebuilt.now, rebuilt.busyTill)
	}
	got := drive(t, rebuilt, rebuiltMem)
	if st := got.stats; st.Jittered == 0 || st.BusyRejects == 0 || st.StormFetches == 0 {
		t.Fatalf("the requests left a perturbation untried: %+v", st)
	}
	if oldDone != doneAtRelease {
		t.Errorf("%d of the %d completions held at the release fired into the rebuilt injector",
			oldDone-doneAtRelease, held)
	}

	runtime.GC()
	runtime.GC() // empties the pools, so this injector and its cache are new
	freshMem := mem.NewDelayDevice(20)
	fresh := NewInjector(plan, 11, cache.New(cfg, freshMem))
	want := drive(t, fresh, freshMem)
	if got.stats != want.stats {
		t.Errorf("rebuilt injector: %+v\nfresh injector:   %+v", got.stats, want.stats)
	}
	if len(got.done) != len(want.done) {
		t.Fatalf("rebuilt injector completed %d requests, fresh %d", len(got.done), len(want.done))
	}
	for i := range got.done {
		if got.done[i] != want.done[i] {
			t.Fatalf("completion %d: rebuilt (req, cycle) %v, fresh %v", i, got.done[i], want.done[i])
		}
	}

	c := cache.New(cfg, mem.NewDelayDevice(20))
	if n := testing.AllocsPerRun(100, func() { NewInjector(plan, 3, c).Release() }); n != 0 && !raceEnabled {
		t.Errorf("an injector built after a release made %v allocations", n)
	}
}

// driven is what an injector did with drive's requests.
type driven struct {
	done  [][2]uint64 // (request, cycle) in completion order
	stats InjectStats
}

// drive sends 300 reads over 48 lines through inj, at most four in
// flight, until every one completes, ticking inj's cache and the memory
// below it.
func drive(t *testing.T, inj *Injector, below *mem.DelayDevice) driven {
	t.Helper()
	var out driven
	type slot struct {
		req  mem.Request
		id   uint64
		busy bool
		done func(uint64) // bound once: the injector may replace req.Done
	}
	var slots [4]slot
	for i := range slots {
		s := &slots[i]
		s.done = func(cycle uint64) {
			out.done = append(out.done, [2]uint64{s.id, cycle})
			s.busy = false
		}
	}
	const n = 300
	issued := uint64(0)
	for cycle := uint64(0); len(out.done) < n; cycle++ {
		if cycle > 1_000_000 {
			t.Fatalf("%d of %d requests completed", len(out.done), n)
		}
		for i := range slots {
			s := &slots[i]
			if s.busy || issued == n {
				continue
			}
			s.req = mem.Request{Addr: mem.Addr(issued*7%48) * mem.LineBytes, Size: 8,
				Kind: mem.Read, Done: s.done}
			if inj.Access(&s.req) {
				s.id, s.busy = issued, true
				issued++
			}
			break
		}
		inj.target.Tick(cycle)
		below.Tick(cycle)
		inj.Tick(cycle)
	}
	out.stats = inj.Stats
	return out
}
