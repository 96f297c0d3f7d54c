package vrmu

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/virec/virec/internal/isa"
)

func TestPolicyNames(t *testing.T) {
	for _, p := range AllPolicies() {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", p.String(), err)
		}
		if got != p {
			t.Errorf("round trip %v -> %v", p, got)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy of bogus name must fail")
	}
}

func TestLookupInsert(t *testing.T) {
	ts := NewTagStore(4, LRC)
	if _, hit := ts.Lookup(0, isa.X1); hit {
		t.Error("empty tag store must miss")
	}
	phys := ts.SelectVictim(nil)
	if phys < 0 {
		t.Fatal("no victim in non-full store")
	}
	if _, ev := ts.Insert(0, isa.X1, phys); ev {
		t.Error("inserting into invalid entry must not evict")
	}
	got, hit := ts.Lookup(0, isa.X1)
	if !hit || got != phys {
		t.Errorf("Lookup after Insert = (%d,%v), want (%d,true)", got, hit, phys)
	}
	// Same register, different thread: separate entry.
	if _, hit := ts.Lookup(1, isa.X1); hit {
		t.Error("thread 1's x1 must not alias thread 0's")
	}
	ts.CountAccess(true)
	ts.CountAccess(false)
	if ts.Stats.Hits != 1 || ts.Stats.Misses != 1 {
		t.Errorf("stats = %+v", ts.Stats)
	}
}

func TestValuesAndDirty(t *testing.T) {
	ts := NewTagStore(2, LRC)
	p := ts.SelectVictim(nil)
	ts.Insert(0, isa.X5, p)
	ts.FillValue(p, 123)
	if ts.ReadValue(p) != 123 {
		t.Error("FillValue/ReadValue mismatch")
	}
	if ts.Entry(p).Dirty {
		t.Error("filled entry must be clean")
	}
	ts.WriteValue(p, 456)
	if ts.ReadValue(p) != 456 || !ts.Entry(p).Dirty {
		t.Error("WriteValue must update and dirty the entry")
	}
	// Evicting the dirty entry surfaces value for the spill.
	p2 := p
	v, ev := ts.Insert(1, isa.X0, p2)
	if !ev || !v.Dirty || v.Value != 456 || v.Thread != 0 || v.Reg != isa.X5 {
		t.Errorf("victim = %+v, want dirty x5 of thread 0 value 456", v)
	}
	if ts.Stats.DirtyEvict != 1 {
		t.Errorf("DirtyEvict = %d, want 1", ts.Stats.DirtyEvict)
	}
}

// fill populates the store with (thread, reg) pairs in order.
func fill(ts *TagStore, pairs ...[2]int) []int {
	phys := make([]int, len(pairs))
	for i, pr := range pairs {
		p := ts.SelectVictim(nil)
		ts.Insert(pr[0], isa.Reg(pr[1]), p)
		phys[i] = p
	}
	return phys
}

// TestPLRUEvictsUpcomingThread reproduces Figure 5: with two threads and a
// round-robin schedule, PLRU evicts registers of the thread about to run
// (the ones used furthest in the past), while MRT-PLRU targets the most
// recently suspended thread.
func TestPLRUEvictsUpcomingThread(t *testing.T) {
	setup := func(policy Policy) *TagStore {
		ts := NewTagStore(4, policy)
		ts.SetCurrent(1) // blue thread running
		// Blue thread's x4, x2 were used long ago (when it last ran).
		phys := fill(ts, [2]int{1, 4}, [2]int{1, 2}, [2]int{0, 5}, [2]int{0, 6})
		// Age blue's registers: red's registers were touched more recently.
		ts.Touch(phys[2])
		ts.Touch(phys[3])
		// Red thread (0) just got suspended; blue (1) is now running.
		ts.OnContextSwitch(0, 1)
		return ts
	}

	// PLRU picks a blue register (upcoming/current thread) — the pathology.
	plru := setup(PLRU)
	v := plru.SelectVictim(nil)
	if got := plru.Entry(v).Thread; got != 1 {
		t.Errorf("PLRU victim thread = %d; expected the pathological choice 1 (current)", got)
	}

	// MRT-PLRU picks a red register (most recently suspended).
	mrt := setup(MRTPLRU)
	v = mrt.SelectVictim(nil)
	if got := mrt.Entry(v).Thread; got != 0 {
		t.Errorf("MRT-PLRU victim thread = %d, want 0 (suspended)", got)
	}
}

// TestLRCPrefersCommittedWithinThread reproduces Figure 6: within the
// suspended thread, LRC evicts a committed register over registers of
// flushed (replayed-on-resume) instructions even when their ages tie.
func TestLRCPrefersCommittedWithinThread(t *testing.T) {
	ts := NewTagStore(3, LRC)
	ts.SetCurrent(0)
	phys := fill(ts, [2]int{0, 2}, [2]int{0, 5}, [2]int{0, 0})
	// Saturate all ages identically.
	for _, p := range phys {
		ts.entries[p].stamp = ts.epoch - maxAge
	}
	// x0 committed; x2, x5 were in flight when the switch happened.
	ts.entries[phys[0]].C = false
	ts.entries[phys[1]].C = false
	ts.entries[phys[2]].C = true
	ts.OnContextSwitch(0, 1)

	v := ts.SelectVictim(nil)
	if ts.Entry(v).Reg != isa.X0 {
		t.Errorf("LRC victim = %s, want x0 (the committed register)", ts.Entry(v).Reg)
	}

	// MRT-PLRU with the same state can't tell them apart by C; it picks by
	// age, and all ages are saturated — it may evict an in-flight register.
	ts2 := NewTagStore(3, MRTPLRU)
	ts2.SetCurrent(0)
	phys2 := fill(ts2, [2]int{0, 2}, [2]int{0, 5}, [2]int{0, 0})
	for _, p := range phys2 {
		ts2.entries[p].stamp = ts2.epoch - maxAge
	}
	ts2.entries[phys2[0]].C = false
	ts2.entries[phys2[1]].C = false
	ts2.entries[phys2[2]].C = true
	ts2.OnContextSwitch(0, 1)
	v2 := ts2.SelectVictim(nil)
	if ts2.Entry(v2).Reg == isa.X0 {
		t.Log("MRT-PLRU happened to pick x0 by tie-break; acceptable but uninformative")
	}
}

func TestTBitsDecay(t *testing.T) {
	ts := NewTagStore(6, LRC)
	ts.SetCurrent(0)
	phys := fill(ts, [2]int{0, 1}, [2]int{1, 1}, [2]int{2, 1})
	// Switch 0 -> 1: thread 0 regs get maxT.
	ts.OnContextSwitch(0, 1)
	if ts.Entry(phys[0]).T != maxT {
		t.Errorf("suspended thread T = %d, want %d", ts.Entry(phys[0]).T, maxT)
	}
	if ts.Entry(phys[1]).T != 0 {
		t.Errorf("running thread T = %d, want 0", ts.Entry(phys[1]).T)
	}
	// Switch 1 -> 2: thread 0 decays, thread 1 becomes maxT.
	ts.OnContextSwitch(1, 2)
	if ts.Entry(phys[0]).T != maxT-1 {
		t.Errorf("older suspended thread T = %d, want %d", ts.Entry(phys[0]).T, maxT-1)
	}
	if ts.Entry(phys[1]).T != maxT {
		t.Errorf("just-suspended thread T = %d, want %d", ts.Entry(phys[1]).T, maxT)
	}
	if ts.Entry(phys[2]).T != 0 {
		t.Errorf("now-running thread T = %d, want 0", ts.Entry(phys[2]).T)
	}
}

func TestLockedRegistersNotEvicted(t *testing.T) {
	ts := NewTagStore(2, LRC)
	p0 := ts.SelectVictim(nil)
	ts.Insert(0, isa.X1, p0)
	p1 := ts.SelectVictim(nil)
	ts.Insert(0, isa.X2, p1)
	v := ts.SelectVictim(func(i int) bool { return i == p0 })
	if v == p0 {
		t.Error("locked register was selected for eviction")
	}
	// Everything locked -> -1.
	if got := ts.SelectVictim(func(i int) bool { return i == p0 || i == p1 }); got != -1 {
		t.Errorf("fully locked store victim = %d, want -1", got)
	}
}

func TestInvalidateThread(t *testing.T) {
	ts := NewTagStore(4, LRC)
	fill(ts, [2]int{0, 1}, [2]int{0, 2}, [2]int{1, 1})
	ts.InvalidateThread(0)
	if ts.Occupancy() != 1 {
		t.Errorf("occupancy = %d, want 1", ts.Occupancy())
	}
	if ts.Contains(0, isa.X1) || ts.Contains(0, isa.X2) {
		t.Error("thread 0 entries must be gone")
	}
	if !ts.Contains(1, isa.X1) {
		t.Error("thread 1 entry must survive")
	}
	if msg := ts.CheckInvariants(); msg != "" {
		t.Error(msg)
	}
}

func TestPerfectLRUOrder(t *testing.T) {
	ts := NewTagStore(3, LRU)
	phys := fill(ts, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3})
	// Touch in order 1, 3, 2 -> LRU order is x1 oldest? No: touch updates
	// recency, so after touching p0, p2, p1 the oldest is p0.
	ts.Touch(phys[0])
	ts.Touch(phys[2])
	ts.Touch(phys[1])
	if v := ts.SelectVictim(nil); v != phys[0] {
		t.Errorf("LRU victim = %d, want %d (least recently touched)", v, phys[0])
	}
}

func TestRollbackQueueFIFO(t *testing.T) {
	ts := NewTagStore(8, LRC)
	q := NewRollbackQueue(3, ts)
	if q.Full() {
		t.Error("empty queue reports full")
	}
	ins := []*isa.Inst{{Op: isa.ADD}, {Op: isa.LDR}, {Op: isa.ADD}}
	q.Push(1, []int{0, 1}, ins[0])
	q.Push(2, []int{2}, ins[1])
	q.Push(3, []int{3}, ins[2])
	if !q.Full() {
		t.Error("queue of depth 3 with 3 entries must be full")
	}
	if got := q.Commit(1); got != ins[0] {
		t.Errorf("Commit(1) returned %v, want the first instruction", got)
	}
	if q.Len() != 2 {
		t.Errorf("len = %d, want 2", q.Len())
	}
	if got := q.Commit(2); got != ins[1] {
		t.Errorf("Commit(2) returned %v, want the second instruction", got)
	}
}

func TestRollbackQueueOutOfOrderCommitPanics(t *testing.T) {
	ts := NewTagStore(4, LRC)
	q := NewRollbackQueue(4, ts)
	q.Push(1, []int{0}, nil)
	q.Push(2, []int{1}, nil)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order commit must panic")
		}
	}()
	q.Commit(2)
}

func TestRollbackFlushResetsCBits(t *testing.T) {
	ts := NewTagStore(4, LRC)
	phys := fill(ts, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3})
	for _, p := range phys {
		ts.Touch(p) // C speculatively set
	}
	q := NewRollbackQueue(8, ts)
	q.Push(1, []int{phys[0], phys[1]}, nil)
	q.Push(2, []int{phys[1], phys[2]}, nil)
	n := q.Flush()
	if n != 3 {
		t.Errorf("flush rolled back %d regs, want 3 distinct", n)
	}
	for _, p := range phys {
		if ts.Entry(p).C {
			t.Errorf("phys %d still has C set after flush", p)
		}
	}
	if q.Len() != 0 {
		t.Error("queue must be empty after flush")
	}
}

func TestCommittedEntriesKeepCBit(t *testing.T) {
	ts := NewTagStore(4, LRC)
	phys := fill(ts, [2]int{0, 1}, [2]int{0, 2})
	ts.Touch(phys[0])
	ts.Touch(phys[1])
	q := NewRollbackQueue(8, ts)
	q.Push(1, []int{phys[0]}, nil)
	q.Push(2, []int{phys[1]}, nil)
	q.Commit(1) // instruction using phys[0] committed
	q.Flush()   // instruction using phys[1] flushed
	if !ts.Entry(phys[0]).C {
		t.Error("committed register lost its C bit")
	}
	if ts.Entry(phys[1]).C {
		t.Error("flushed register kept its C bit")
	}
}

// Property: after any sequence of inserts and touches, invariants hold and
// occupancy never exceeds capacity.
func TestTagStoreInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		ts := NewTagStore(8, LRC)
		for _, op := range ops {
			thread := int(op>>8) % 4
			reg := isa.Reg(op % 32)
			if p, hit := ts.Lookup(thread, reg); hit {
				ts.Touch(p)
				if op%2 == 0 {
					ts.WriteValue(p, uint64(op))
				}
			} else {
				v := ts.SelectVictim(nil)
				if v < 0 {
					return false
				}
				ts.Insert(thread, reg, v)
				ts.FillValue(v, uint64(op))
			}
			if op%16 == 0 {
				ts.OnContextSwitch(thread, (thread+1)%4)
			}
		}
		return ts.CheckInvariants() == "" && ts.Occupancy() <= ts.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a lookup immediately after insert always hits and returns the
// same physical index, for any prior state.
func TestInsertThenLookupProperty(t *testing.T) {
	f := func(seed []uint8, thread uint8, reg uint8) bool {
		ts := NewTagStore(6, MRTPLRU)
		for _, s := range seed {
			v := ts.SelectVictim(nil)
			ts.Insert(int(s>>5), isa.Reg(s%32), v)
		}
		th, rg := int(thread%4), isa.Reg(reg%32)
		var phys int
		if p, hit := ts.Lookup(th, rg); hit {
			phys = p
		} else {
			phys = ts.SelectVictim(nil)
			ts.Insert(th, rg, phys)
		}
		p, hit := ts.Lookup(th, rg)
		return hit && p == phys
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHitRateStats(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("zero stats hit rate must be 0")
	}
	s.Hits, s.Misses = 9, 1
	if s.HitRate() != 0.9 {
		t.Errorf("hit rate = %v", s.HitRate())
	}
}

func TestBeladyPolicyUsesOracle(t *testing.T) {
	ts := NewTagStore(3, Belady)
	ts.SetCurrent(0)
	phys := fill(ts, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3})
	// Oracle: x1 used soon, x2 later, x3 never again.
	dist := map[isa.Reg]uint64{isa.X1: 2, isa.X2: 50, isa.X3: 0xffffffff}
	ts.SetOracle(func(thread int, reg isa.Reg) uint64 { return dist[reg] })
	ts.OnContextSwitch(0, 1)
	v := ts.SelectVictim(nil)
	if ts.Entry(v).Reg != isa.X3 {
		t.Errorf("Belady victim = %s, want x3 (never used again)", ts.Entry(v).Reg)
	}
	_ = phys
}

func TestBeladyThreadOrderingDominates(t *testing.T) {
	// A register of the most recently suspended thread (runs last) is
	// evicted before a sooner-running thread's register, even when the
	// oracle says the latter's next use is farther within its thread.
	ts := NewTagStore(2, Belady)
	ts.SetCurrent(0)
	fill(ts, [2]int{0, 1}, [2]int{1, 1})
	ts.SetOracle(func(thread int, reg isa.Reg) uint64 {
		if thread == 0 {
			return 1 // thread 0's x1 used almost immediately (when it runs)
		}
		return 1000
	})
	// Suspend thread 0; thread 1 runs now, so thread 0 runs furthest out.
	ts.OnContextSwitch(0, 1)
	v := ts.SelectVictim(nil)
	if ts.Entry(v).Thread != 0 {
		t.Errorf("victim thread = %d, want 0 (runs furthest in the future)", ts.Entry(v).Thread)
	}
}

func TestBeladyNotInAllPolicies(t *testing.T) {
	for _, p := range AllPolicies() {
		if p == Belady {
			t.Error("Belady requires an oracle feed and must not be in AllPolicies")
		}
	}
	got, err := ParsePolicy("Belady")
	if err != nil || got != Belady {
		t.Errorf("ParsePolicy(Belady) = %v, %v", got, err)
	}
}

func TestEvictAndLineSiblings(t *testing.T) {
	ts := NewTagStore(6, LRC)
	phys := fill(ts, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 9}, [2]int{1, 3})
	ts.WriteValue(phys[0], 111)

	// x1 and x2 share thread 0's first backing line; x9 does not, and
	// thread 1's x3 never groups with thread 0.
	var buf [7]int
	sibs := ts.LineSiblings(&buf, 0, isa.X1)
	if len(sibs) != 1 || ts.Entry(sibs[0]).Reg != isa.X2 {
		t.Errorf("LineSiblings(t0,x1) = %v", sibs)
	}

	v, ok := ts.Evict(phys[0])
	if !ok || v.Reg != isa.X1 || !v.Dirty || v.Value != 111 {
		t.Errorf("Evict = %+v, %v", v, ok)
	}
	if ts.Contains(0, isa.X1) {
		t.Error("evicted register still indexed")
	}
	if _, ok := ts.Evict(phys[0]); ok {
		t.Error("evicting an empty slot must report !ok")
	}
	if msg := ts.CheckInvariants(); msg != "" {
		t.Error(msg)
	}
}

// TestReservedTagStoreAllocatesNothing: once its threads are reserved, a
// tag store maps, groups and evicts registers without growing its CAM or
// allocating.
func TestReservedTagStoreAllocatesNothing(t *testing.T) {
	const threads = 4
	ts := NewTagStore(2*threads, LRC)
	ts.Reserve(threads)
	camLen := len(ts.cam)
	var buf [7]int
	if n := testing.AllocsPerRun(100, func() {
		for th := 0; th < threads; th++ {
			ts.Insert(th, isa.X1, 2*th)
			ts.Insert(th, isa.X2, 2*th+1)
			if sibs := ts.LineSiblings(&buf, th, isa.X1); len(sibs) != 1 || sibs[0] != 2*th+1 {
				t.Fatalf("LineSiblings(t%d, x1) = %v", th, sibs)
			}
			ts.Evict(2 * th)
			ts.Evict(2*th + 1)
		}
	}); n != 0 {
		t.Errorf("%v allocs per round of inserts, sibling lookups and evictions; want 0", n)
	}
	if len(ts.cam) != camLen {
		t.Errorf("CAM grew from %d to %d slots after Reserve(%d)", camLen, len(ts.cam), threads)
	}
}

func TestBeladyWithoutOracleFallsBack(t *testing.T) {
	// Without an oracle feed, Belady degenerates to thread-recency only
	// (distance 0 for everything) and must still pick valid victims.
	ts := NewTagStore(2, Belady)
	fill(ts, [2]int{0, 1}, [2]int{1, 1})
	ts.OnContextSwitch(0, 1)
	v := ts.SelectVictim(nil)
	if v < 0 || !ts.Entry(v).Valid {
		t.Errorf("victim = %d", v)
	}
	if ts.Entry(v).Thread != 0 {
		t.Errorf("victim thread = %d, want the suspended thread 0", ts.Entry(v).Thread)
	}
}

func TestFillDummyLifecycle(t *testing.T) {
	ts := NewTagStore(2, LRC)
	p := ts.SelectVictim(nil)
	ts.Insert(0, isa.X4, p)
	ts.FillDummy(p)
	if e := ts.Entry(p); !e.Dummy || e.Dirty {
		t.Errorf("dummy entry state = %+v", e)
	}
	// Evicting a dummy surfaces the flag so spills drop the value.
	v, _ := ts.Evict(p)
	if !v.Dummy {
		t.Error("dummy victim must carry the flag")
	}
	// A write clears dummy.
	p2 := ts.SelectVictim(nil)
	ts.Insert(0, isa.X5, p2)
	ts.FillDummy(p2)
	ts.WriteValue(p2, 7)
	if e := ts.Entry(p2); e.Dummy || !e.Dirty {
		t.Errorf("written entry state = %+v", e)
	}
}

// TestAgesMatchAgingScan runs random Touch, Insert, Evict,
// InvalidateThread and OnContextSwitch sequences against a model of the
// aging scan that ages are derived from: on every agingEpoch-th touch,
// each valid entry other than the touched one ages by one, saturating at
// 7, and a touch or insert resets the entry's age to 0. Every valid
// entry's Age must match the model after every operation.
//
// The same sequence drives a store of every age- and recency-based
// policy. An entry's age never falls as its last use grows older, so
// pseudo-LRU with least-recent-use tie-breaks picks exactly the LRU
// victim: after every operation the LRU and PLRU stores must both choose
// an invalid entry if there is one and otherwise the least recently used
// entry, and MRT-PLRU must choose the MRT-LRU victim.
func TestAgesMatchAgingScan(t *testing.T) {
	const size, threads = 12, 3
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	policies := []Policy{LRC, LRU, PLRU, MRTLRU, MRTPLRU}
	for run := 0; run < 50; run++ {
		stores := make([]*TagStore, len(policies))
		for i, pol := range policies {
			stores[i] = NewTagStore(size, pol)
		}
		var clock uint64
		var valid [size]bool
		var owner [size]int
		var age [size]uint8
		var lastUse [size]uint64
		for op := 0; op < 400; op++ {
			phys := next(size)
			switch next(16) {
			case 0, 1, 2, 3, 4: // insert a register no entry holds yet, into a free entry if there is one
				thread, reg := next(threads), isa.Reg(next(16))
				if stores[0].Contains(thread, reg) {
					continue
				}
				if free := slices.Index(valid[:], false); free >= 0 {
					phys = free
				}
				for _, ts := range stores {
					ts.Insert(thread, reg, phys)
				}
				clock++
				valid[phys], owner[phys], age[phys], lastUse[phys] = true, thread, 0, clock
			case 5:
				for _, ts := range stores {
					ts.Evict(phys)
				}
				valid[phys] = false
			case 6:
				if next(4) != 0 { // rare: it empties a third of the store
					continue
				}
				thread := next(threads)
				for _, ts := range stores {
					ts.InvalidateThread(thread)
				}
				for i := range valid {
					if owner[i] == thread {
						valid[i] = false
					}
				}
			case 7:
				suspended, resumed := next(threads), next(threads)
				for _, ts := range stores {
					ts.OnContextSwitch(suspended, resumed)
				}
			default:
				for _, ts := range stores {
					ts.Touch(phys)
				}
				clock++
				if clock%agingEpoch == 0 {
					for i := range age {
						if i != phys && valid[i] && age[i] < maxAge {
							age[i]++
						}
					}
				}
				if valid[phys] {
					age[phys], lastUse[phys] = 0, clock
				}
			}
			for _, ts := range stores {
				for i := 0; i < size; i++ {
					if ts.Entry(i).Valid != valid[i] {
						t.Fatalf("run %d op %d %v: entry %d valid %v, model %v", run, op, ts.Policy(), i, ts.Entry(i).Valid, valid[i])
					}
					if valid[i] && ts.Age(i) != age[i] {
						t.Fatalf("run %d op %d %v: entry %d has age %d, the aging scan gives %d", run, op, ts.Policy(), i, ts.Age(i), age[i])
					}
				}
			}
			want := -1
			for i := range valid {
				if !valid[i] {
					want = i
					break
				}
				if want < 0 || lastUse[i] < lastUse[want] {
					want = i
				}
			}
			for _, ts := range stores[1:3] { // LRU, PLRU
				v := ts.SelectVictim(nil)
				if v < 0 || valid[v] != valid[want] || (valid[v] && v != want) {
					t.Fatalf("run %d op %d %v: victim %d, want %d (the least recently used, or any invalid entry)", run, op, ts.Policy(), v, want)
				}
			}
			if got, want := stores[4].SelectVictim(nil), stores[3].SelectVictim(nil); got != want {
				t.Fatalf("run %d op %d: MRT-PLRU victim %d, MRT-LRU victim %d", run, op, got, want)
			}
		}
	}
}
