package vrmu

import (
	"strings"
	"testing"

	"github.com/virec/virec/internal/isa"
)

// The hardening layer leans on CheckInvariants to catch silent corruption
// mid-run, so the checkers themselves need failure-mode coverage: each
// test below corrupts one structure directly and demands a specific
// diagnostic.

func TestRollbackCommitPanicNamesSequences(t *testing.T) {
	ts := NewTagStore(4, LRC)
	q := NewRollbackQueue(4, ts)
	q.Push(10, []int{0}, nil)
	q.Push(11, []int{1}, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("out-of-order commit must panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, want := range []string{"committed seq 11", "oldest in-flight seq 10", "2 queued"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q missing %q", msg, want)
			}
		}
	}()
	q.Commit(11)
}

func TestRollbackCommitEmptyIsNoop(t *testing.T) {
	q := NewRollbackQueue(2, NewTagStore(2, LRC))
	q.Commit(99) // spurious commit signal against an empty queue
	if q.Len() != 0 {
		t.Errorf("len = %d, want 0", q.Len())
	}
}

func TestRollbackCheckInvariants(t *testing.T) {
	ts := NewTagStore(4, LRC)
	q := NewRollbackQueue(2, ts)
	q.Push(1, []int{0}, nil)
	q.Push(2, []int{1}, nil)
	if msg := q.CheckInvariants(ts.Size()); msg != "" {
		t.Fatalf("healthy queue reports %q", msg)
	}

	// Occupancy above depth (Push does not enforce Full; decode does).
	q.Push(3, []int{2}, nil)
	if msg := q.CheckInvariants(ts.Size()); !strings.Contains(msg, "exceed depth") {
		t.Errorf("over-depth queue reports %q", msg)
	}
	q.entries = q.entries[:2]

	// Non-increasing sequence numbers.
	q.entries[1].Seq = q.entries[0].Seq
	if msg := q.CheckInvariants(ts.Size()); !strings.Contains(msg, "not after predecessor") {
		t.Errorf("stale-seq queue reports %q", msg)
	}
	q.entries[1].Seq = q.entries[0].Seq + 1

	// Physical index out of range.
	q.entries[0].Phys[0] = ts.Size()
	if msg := q.CheckInvariants(ts.Size()); !strings.Contains(msg, "outside") {
		t.Errorf("out-of-range phys reports %q", msg)
	}
}

func TestTagStoreCheckInvariantsFailureModes(t *testing.T) {
	mk := func() *TagStore {
		ts := NewTagStore(4, LRC)
		for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 1}} {
			phys := ts.SelectVictim(nil)
			ts.Insert(pair[0], isa.Reg(pair[1]), phys)
		}
		if msg := ts.CheckInvariants(); msg != "" {
			t.Fatalf("healthy store reports %q", msg)
		}
		return ts
	}

	// mappedPhys returns the physical slot of a register mk installed.
	mappedPhys := func(t *testing.T, ts *TagStore) int {
		t.Helper()
		i, ok := ts.Lookup(0, isa.Reg(1))
		if !ok {
			t.Fatal("mk's (0, X1) mapping missing")
		}
		return i
	}

	t.Run("index-entry mismatch", func(t *testing.T) {
		ts := mk()
		ts.entries[mappedPhys(t, ts)].Thread++ // entry no longer matches its key
		if msg := ts.CheckInvariants(); !strings.Contains(msg, "mismatches entry") {
			t.Errorf("got %q", msg)
		}
	})

	t.Run("invalid entry behind index", func(t *testing.T) {
		ts := mk()
		ts.entries[mappedPhys(t, ts)].Valid = false
		if msg := ts.CheckInvariants(); !strings.Contains(msg, "mismatches entry") {
			t.Errorf("got %q", msg)
		}
	})

	t.Run("out-of-range replacement bits", func(t *testing.T) {
		// The age is derived from an epoch stamp and cannot leave its
		// range; the thread recency is stored and can.
		ts := mk()
		ts.entries[mappedPhys(t, ts)].T = maxT + 1
		if msg := ts.CheckInvariants(); !strings.Contains(msg, "out-of-range bits") {
			t.Errorf("T-bit overflow: got %q", msg)
		}
	})

	t.Run("valid count vs index count", func(t *testing.T) {
		ts := mk()
		// A valid entry the index has forgotten: count mismatch.
		for i := range ts.entries {
			if !ts.entries[i].Valid {
				ts.entries[i].Valid = true
				break
			}
		}
		if msg := ts.CheckInvariants(); !strings.Contains(msg, "cam mappings") {
			t.Errorf("got %q", msg)
		}
	})
}
