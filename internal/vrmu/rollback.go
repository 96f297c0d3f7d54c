package vrmu

import (
	"fmt"
	"slices"
	"sync"

	"github.com/virec/virec/internal/isa"
)

// RollbackEntry records one in-flight instruction: the instruction itself,
// handed back at commit so the provider can apply what it carries, and the
// distinct physical registers it touched. An instruction touches at most
// four registers (three sources and a destination), so they fit in a
// fixed array.
type RollbackEntry struct {
	Seq   uint64 // instruction sequence number, for matching on commit
	Inst  *isa.Inst
	Phys  [4]int
	NPhys int
}

// RollbackQueue is the FIFO of in-flight instructions' register indices.
// Its depth equals the maximum number of instructions in the processor
// backend. When a context switch flushes the pipeline, Flush compacts all
// queued indices and resets their C bits in the tag store, so registers of
// flushed (soon to be replayed) instructions are retained over committed
// ones by the LRC policy.
type RollbackQueue struct {
	entries []RollbackEntry
	depth   int
	tags    *TagStore

	// Flush scratch, reused across flushes: seen marks physical indices
	// already compacted, phys collects the distinct set. Both are cleared
	// after use so steady-state flushes allocate nothing.
	seen []bool
	phys []int
}

// rollbackPool holds released rollback queues.
var rollbackPool sync.Pool

// NewRollbackQueue builds a rollback queue of the given depth bound to the
// tag store whose C bits it maintains. It rebuilds a released queue when
// there is one, keeping its entry and scratch arrays, empty.
func NewRollbackQueue(depth int, tags *TagStore) *RollbackQueue {
	if depth <= 0 {
		depth = 1
	}
	q, _ := rollbackPool.Get().(*RollbackQueue)
	if q == nil {
		q = new(RollbackQueue)
	}
	entries := slices.Grow(q.entries[:0], depth)
	// seen grows on demand past the store's size.
	seen := q.seen
	if tags != nil && len(seen) < tags.Size() {
		seen = make([]bool, tags.Size())
	}
	clear(seen)
	*q = RollbackQueue{entries: entries, depth: depth, tags: tags, seen: seen, phys: q.phys[:0]}
	return q
}

// Release hands the queue to the next NewRollbackQueue, once nothing uses it.
func (q *RollbackQueue) Release() { rollbackPool.Put(q) }

// Full reports whether the queue cannot accept another instruction; the
// decode stage stalls while full (the backend is saturated).
func (q *RollbackQueue) Full() bool { return len(q.entries) >= q.depth }

// Len returns the number of in-flight instructions tracked.
func (q *RollbackQueue) Len() int { return len(q.entries) }

// Depth returns the configured capacity.
func (q *RollbackQueue) Depth() int { return q.depth }

// CheckInvariants validates the queue against a tag store of physSize
// entries: occupancy within depth, strictly increasing sequence numbers
// (the backend is in-order), and every recorded physical index in range.
// It returns a description of the first violation, or "".
func (q *RollbackQueue) CheckInvariants(physSize int) string {
	if len(q.entries) > q.depth {
		return fmt.Sprintf("%d entries exceed depth %d", len(q.entries), q.depth)
	}
	for i, e := range q.entries {
		if i > 0 && e.Seq <= q.entries[i-1].Seq {
			return fmt.Sprintf("entry %d seq %d not after predecessor seq %d", i, e.Seq, q.entries[i-1].Seq)
		}
		for _, p := range e.Phys[:e.NPhys] {
			if p < 0 || p >= physSize {
				return fmt.Sprintf("entry %d (seq %d) records physical register %d outside [0,%d)", i, e.Seq, p, physSize)
			}
		}
	}
	return ""
}

// Push records an instruction that passed decode together with the
// distinct physical registers it touched. Entries are values in a slice
// sized to the depth, so Push allocates nothing — it runs once per decoded
// instruction, on the core's tick path.
func (q *RollbackQueue) Push(seq uint64, phys []int, in *isa.Inst) {
	e := RollbackEntry{Seq: seq, Inst: in}
	if len(phys) > len(e.Phys) {
		panic(fmt.Sprintf("vrmu: instruction seq %d touches %d physical registers, an entry holds %d",
			seq, len(phys), len(e.Phys)))
	}
	e.NPhys = copy(e.Phys[:], phys)
	q.entries = append(q.entries, e)
}

// Commit removes the oldest entry and returns its instruction; the commit
// stage signals it when an instruction completes. A commit against an
// empty queue, whose instruction a flush already discarded, returns nil.
// Committing out of order is a programming error and panics (the core is
// in-order).
func (q *RollbackQueue) Commit(seq uint64) *isa.Inst {
	if len(q.entries) == 0 {
		return nil
	}
	if q.entries[0].Seq != seq {
		panic(fmt.Sprintf("vrmu: out-of-order commit against rollback queue: committed seq %d, oldest in-flight seq %d (%d queued)",
			seq, q.entries[0].Seq, len(q.entries)))
	}
	in := q.entries[0].Inst
	q.entries = append(q.entries[:0], q.entries[1:]...)
	return in
}

// Drop empties the queue without resetting any C bits (the NoRollback
// ablation: the hardware cost of the queue is removed and commit bits go
// stale on flushes).
func (q *RollbackQueue) Drop() {
	q.entries = q.entries[:0]
}

// Flush compacts every queued register index into one set, resets the
// corresponding C bits in the tag store, and empties the queue. It returns
// the number of distinct physical registers rolled back. Flush runs on
// every pipeline flush (each context switch); the compaction set and its
// membership bitmap are scratch fields reused across calls.
func (q *RollbackQueue) Flush() int {
	if len(q.entries) == 0 {
		return 0
	}
	q.phys = q.phys[:0]
	for _, e := range q.entries {
		for _, p := range e.Phys[:e.NPhys] {
			for p >= len(q.seen) {
				q.seen = append(q.seen, false)
			}
			if !q.seen[p] {
				q.seen[p] = true
				q.phys = append(q.phys, p)
			}
		}
	}
	q.tags.ResetC(q.phys)
	for _, p := range q.phys {
		q.seen[p] = false
	}
	q.entries = q.entries[:0]
	return len(q.phys)
}
