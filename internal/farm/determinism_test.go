package farm

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"
)

// TestResultBytesIdenticalAcrossExecutionPaths is the farm's counterpart
// to sweep's serial ≡ parallel law: for one spec, the result bytes must
// be identical whether computed
//
//  1. inline (Execute, no farm at all),
//  2. by a farm worker,
//  3. on a retry after the first attempt crashed, or
//  4. served from the content-addressed cache by a later farm
//     generation that has no memory of the job, only the cache dir.
func TestResultBytesIdenticalAcrossExecutionPaths(t *testing.T) {
	specs := []*Spec{
		testSpec(0xd0),
		testSpec(0xd1),
		{Kind: KindDifftest, Difftest: &DifftestSpec{
			Seed:      7,
			Scenarios: []string{"virec/LRC/t2", "banked/t2"},
		}},
		{Kind: KindExperiment, Experiment: &ExperimentSpec{
			Name: "fig9", Quick: true, Format: "csv",
		}},
	}

	// Path 1: inline.
	inline := make([][]byte, len(specs))
	for i, spec := range specs {
		out, err := Execute(context.Background(), spec)
		if err != nil {
			t.Fatalf("inline Execute(%s): %v", spec.Summary(), err)
		}
		inline[i] = out
	}

	// Path 2: farm worker.
	opt := testOptions(t)
	f := openFarm(t, opt)
	for i, spec := range specs {
		job, err := f.Submit(spec)
		if err != nil {
			t.Fatalf("Submit(%s): %v", spec.Summary(), err)
		}
		if got := waitDone(t, f, job.ID); got.State != StateDone {
			t.Fatalf("%s: state %s (error %q)", spec.Summary(), got.State, got.Error)
		}
		out, err := f.Result(job.ID)
		if err != nil {
			t.Fatalf("Result(%s): %v", spec.Summary(), err)
		}
		if !bytes.Equal(out, inline[i]) {
			t.Errorf("%s: worker bytes differ from inline (%d vs %d bytes)",
				spec.Summary(), len(out), len(inline[i]))
		}
	}

	// Path 3: post-crash retry — attempt 1 panics, attempt 2 runs clean.
	opt3 := testOptions(t)
	opt3.ExecWrap = func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error) {
		if attempt == 1 {
			panic("injected first-attempt crash")
		}
		return next()
	}
	f3 := openFarm(t, opt3)
	for i, spec := range specs {
		job, err := f3.Submit(spec)
		if err != nil {
			t.Fatalf("Submit(%s): %v", spec.Summary(), err)
		}
		got := waitDone(t, f3, job.ID)
		if got.State != StateDone {
			t.Fatalf("%s after crash-retry: state %s (error %q)", spec.Summary(), got.State, got.Error)
		}
		if got.Attempts != 2 {
			t.Fatalf("%s: attempts = %d, want 2", spec.Summary(), got.Attempts)
		}
		out, err := f3.Result(job.ID)
		if err != nil {
			t.Fatalf("Result(%s): %v", spec.Summary(), err)
		}
		if !bytes.Equal(out, inline[i]) {
			t.Errorf("%s: crash-retry bytes differ from inline", spec.Summary())
		}
	}

	// Path 4: cache hit. Kill the first farm, wipe its queue state but
	// keep its cache, and reopen: the new generation has never seen these
	// jobs yet completes them instantly from content address alone.
	f.Kill()
	if err := os.Remove(journalPath(opt.Dir)); err != nil {
		t.Fatalf("removing journal: %v", err)
	}
	if err := os.Remove(checkpointPath(opt.Dir)); err != nil && !os.IsNotExist(err) {
		t.Fatalf("removing checkpoint: %v", err)
	}
	f4 := openFarm(t, opt)
	for i, spec := range specs {
		job, err := f4.Submit(spec)
		if err != nil {
			t.Fatalf("Submit(%s): %v", spec.Summary(), err)
		}
		if !job.FromCache || job.State != StateDone {
			t.Fatalf("%s: expected an instant cache completion, got state %s from_cache=%v",
				spec.Summary(), job.State, job.FromCache)
		}
		out, err := f4.Result(job.ID)
		if err != nil {
			t.Fatalf("Result(%s): %v", spec.Summary(), err)
		}
		if !bytes.Equal(out, inline[i]) {
			t.Errorf("%s: cached bytes differ from inline", spec.Summary())
		}
	}
	if st := f4.StatsSnapshot(); st.CacheHits != uint64(len(specs)) {
		t.Fatalf("CacheHits = %d, want %d", st.CacheHits, len(specs))
	}
}

// TestCacheKeySensitivity: the content address must move when anything
// that can change result bytes moves — spec fields and code version —
// and must not move for an identical respecification.
func TestCacheKeySensitivity(t *testing.T) {
	base := testSpec(1)
	k1, err := base.CacheKey(CodeVersion)
	if err != nil {
		t.Fatalf("CacheKey: %v", err)
	}
	same, err := testSpec(1).CacheKey(CodeVersion)
	if err != nil {
		t.Fatalf("CacheKey: %v", err)
	}
	if k1 != same {
		t.Fatal("identical specs hashed differently")
	}
	variants := []*Spec{
		testSpec(2), // seed
		{Kind: KindSim, Sim: &SimSpec{CoreKind: "banked", Threads: 2, Workload: "vecadd", Iters: 16, Seed: 1}},
		{Kind: KindSim, Sim: &SimSpec{CoreKind: "virec", Threads: 4, Workload: "vecadd", Iters: 16, Seed: 1}},
		{Kind: KindSim, Sim: &SimSpec{CoreKind: "virec", Threads: 2, Workload: "triad", Iters: 16, Seed: 1}},
	}
	seen := map[string]string{k1: "base"}
	for i, v := range variants {
		k, err := v.CacheKey(CodeVersion)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("variant %d collides with %s", i, prev)
		}
		seen[k] = fmt.Sprintf("variant %d", i)
	}
	bumped, err := base.CacheKey("virec-farm/2")
	if err != nil {
		t.Fatalf("CacheKey: %v", err)
	}
	if bumped == k1 {
		t.Fatal("code-version bump did not move the cache key")
	}
}
