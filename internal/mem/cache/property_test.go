package cache

import (
	"testing"
	"testing/quick"

	"github.com/virec/virec/internal/mem"
)

// refCache is a simple functional reference model: a set-associative LRU
// tag store with unlimited ports and instant fills, used to cross-check
// the timed cache's steady-state contents.
type refCache struct {
	sets    [][]refLine
	numSets int
	clock   uint64
}

type refLine struct {
	tag     uint64
	valid   bool
	lastUse uint64
}

func newRefCache(sizeBytes, assoc int) *refCache {
	numSets := sizeBytes / mem.LineBytes / assoc
	if numSets < 1 {
		numSets = 1
	}
	sets := make([][]refLine, numSets)
	for i := range sets {
		sets[i] = make([]refLine, assoc)
	}
	return &refCache{sets: sets, numSets: numSets}
}

func (c *refCache) access(a mem.Addr) bool {
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
	c.sets[set][victim] = refLine{tag: tag, valid: true, lastUse: c.clock}
	return false
}

// TestMatchesReferenceModelSequential drives the timed cache one access at
// a time (letting each complete before the next) and checks that its
// hit/miss classification matches the functional LRU reference exactly.
func TestMatchesReferenceModelSequential(t *testing.T) {
	f := func(raw []uint16) bool {
		stub := newStub(3)
		c := New(Config{Name: "p", SizeBytes: 512, Assoc: 2, HitLatency: 1,
			MSHRs: 4, Ports: 4}, stub)
		ref := newRefCache(512, 2)

		cycle := uint64(0)
		tick := func() {
			cycle++
			c.Tick(cycle)
			stub.Tick(cycle)
		}
		tick()
		for _, r16 := range raw {
			addr := mem.Addr(r16) * 8 // 512 KB address range
			hitsBefore := c.Stats.Hits
			done := false
			if !c.Access(&mem.Request{Addr: addr, Kind: mem.Read,
				Done: func(uint64) { done = true }}) {
				return false // sequential single access must be accepted
			}
			timedHit := c.Stats.Hits == hitsBefore+1
			refHit := ref.access(addr)
			if timedHit != refHit {
				return false
			}
			for i := 0; i < 100 && !done; i++ {
				tick()
			}
			if !done {
				return false
			}
			tick()
		}
		return c.CheckInvariants() == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestWritebackCountNeverExceedsDirtyFills checks a conservation law: the
// cache can never write back more lines than it made dirty.
func TestWritebackCountNeverExceedsDirtyFills(t *testing.T) {
	f := func(raw []uint16, writeMask uint8) bool {
		stub := newStub(2)
		c := New(Config{Name: "p", SizeBytes: 256, Assoc: 2, HitLatency: 1,
			MSHRs: 4, Ports: 4}, stub)
		cycle := uint64(0)
		writes := uint64(0)
		for i, r16 := range raw {
			kind := mem.Read
			if (uint8(i)&writeMask)%3 == 0 {
				kind = mem.Write
				writes++
			}
			c.Access(&mem.Request{Addr: mem.Addr(r16) * 16, Kind: kind})
			cycle++
			c.Tick(cycle)
			stub.Tick(cycle)
		}
		for i := 0; i < 500; i++ {
			cycle++
			c.Tick(cycle)
			stub.Tick(cycle)
		}
		return c.Stats.Writebacks <= writes && c.CheckInvariants() == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
