package vrmu

import (
	"testing"

	"github.com/virec/virec/internal/isa"
)

// Rollback corner cases at the tag-store level: the commit of an older
// instruction and the flush of younger ones land in the same cycle, in
// both orders, with shared physical registers; and rollback touching a
// dummy-destination entry. The regfile package covers the same races
// through the full provider (rollback_corner_test.go there).

func TestRollbackQueueCommitFlushRaces(t *testing.T) {
	cases := []struct {
		name string
		// run drives the race; phys are three valid entries with C set.
		run func(t *testing.T, ts *TagStore, q *RollbackQueue, phys []int)
		// wantC is the expected commit bit of each phys entry afterwards.
		wantC  []bool
		wantCR uint64 // expected Stats.CResets
	}{
		{
			// Instruction A (seq 1) commits in the same cycle the flush
			// for younger instructions arrives. Commit is ordered first
			// (the commit stage runs before the flush takes effect), but
			// the still-queued B (seq 2) shares p0 — so the rollback must
			// clear p0's C bit even though A's commit just set it. LRC
			// will then retain p0 for B's replay.
			name: "commit-then-flush-shared-phys",
			run: func(t *testing.T, ts *TagStore, q *RollbackQueue, phys []int) {
				q.Push(1, []int{phys[0]}, nil)
				q.Push(2, []int{phys[0], phys[1]}, nil)
				q.Commit(1)
				if n := q.Flush(); n != 2 {
					t.Fatalf("Flush rolled back %d registers, want 2", n)
				}
			},
			wantC:  []bool{false, false, true},
			wantCR: 2,
		},
		{
			// The flush wins the race and empties the queue; the commit
			// signal for the already-flushed instruction arrives a moment
			// later. The stale commit must be ignored — no panic, no
			// state change (the instruction will be replayed and commit
			// again under a fresh sequence number).
			name: "flush-then-stale-commit",
			run: func(t *testing.T, ts *TagStore, q *RollbackQueue, phys []int) {
				q.Push(1, []int{phys[0]}, nil)
				q.Flush()
				// Empty queue: the stale commit must be a no-op.
				if in := q.Commit(1); in != nil {
					t.Fatalf("stale commit returned %v, want nil", in)
				}
				if q.Len() != 0 {
					t.Fatalf("queue not empty after flush+stale commit: %d", q.Len())
				}
			},
			wantC:  []bool{false, true, true},
			wantCR: 1,
		},
		{
			// Everything in flight drains through commit before the flush
			// lands: the flush sees an empty queue and must reset nothing
			// — committed registers keep their C bits (evictable first
			// under LRC, exactly right for retired state).
			name: "flush-after-full-drain",
			run: func(t *testing.T, ts *TagStore, q *RollbackQueue, phys []int) {
				q.Push(1, []int{phys[0]}, nil)
				q.Push(2, []int{phys[1], phys[2]}, nil)
				q.Commit(1)
				q.Commit(2)
				if n := q.Flush(); n != 0 {
					t.Fatalf("Flush of a drained queue rolled back %d registers", n)
				}
			},
			wantC:  []bool{true, true, true},
			wantCR: 0,
		},
		{
			// A register appears in several queued entries and one
			// already-committed one: the flush must reset its C bit
			// exactly once (CResets counts distinct resets of set bits).
			name: "flush-dedupes-shared-phys",
			run: func(t *testing.T, ts *TagStore, q *RollbackQueue, phys []int) {
				q.Push(1, []int{phys[0], phys[1]}, nil)
				q.Push(2, []int{phys[1], phys[0]}, nil)
				q.Push(3, []int{phys[0]}, nil)
				if n := q.Flush(); n != 2 {
					t.Fatalf("Flush rolled back %d distinct registers, want 2", n)
				}
			},
			wantC:  []bool{false, false, true},
			wantCR: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := NewTagStore(4, LRC)
			phys := fill(ts, [2]int{0, 3}, [2]int{0, 4}, [2]int{0, 5})
			for _, p := range phys {
				ts.entries[p].C = true
			}
			ts.Stats.CResets = 0
			q := NewRollbackQueue(8, ts)
			tc.run(t, ts, q, phys)
			for i, p := range phys {
				if got := ts.Entry(p).C; got != tc.wantC[i] {
					t.Errorf("phys[%d] (%s) C = %v, want %v", i, ts.Entry(p).Reg, got, tc.wantC[i])
				}
			}
			if ts.Stats.CResets != tc.wantCR {
				t.Errorf("CResets = %d, want %d", ts.Stats.CResets, tc.wantCR)
			}
			if msg := q.CheckInvariants(ts.Size()); msg != "" {
				t.Errorf("queue invariants: %s", msg)
			}
			if msg := ts.CheckInvariants(); msg != "" {
				t.Errorf("tag-store invariants: %s", msg)
			}
		})
	}
}

// TestRollbackOfDummyEntryKeepsSpillElision: rolling back an instruction
// whose destination was allocated via the dummy-destination optimization
// must not disturb the elision — the entry stays Dummy, and its
// placeholder value must still never reach the backing store on eviction.
func TestRollbackOfDummyEntryKeepsSpillElision(t *testing.T) {
	ts := NewTagStore(2, LRC)
	p := ts.SelectVictim(nil)
	ts.Insert(0, isa.X7, p)
	ts.FillDummy(p)
	if !ts.Entry(p).Dummy {
		t.Fatal("FillDummy must mark the entry")
	}

	q := NewRollbackQueue(4, ts)
	q.Push(1, []int{p}, nil)
	q.Flush() // the defining instruction was squashed before commit

	e := ts.Entry(p)
	if !e.Dummy {
		t.Error("rollback cleared the Dummy bit; the placeholder would be spilled")
	}
	if e.C {
		t.Error("rollback left the C bit set")
	}

	// Evict the rolled-back dummy: the victim must still carry the Dummy
	// mark so the BSI elides the data write.
	v, ev := ts.Insert(1, isa.X0, p)
	if !ev {
		t.Fatal("re-insert over a valid entry must evict")
	}
	if !v.Dummy {
		t.Error("victim lost the Dummy mark; placeholder would corrupt the backing store")
	}
}
