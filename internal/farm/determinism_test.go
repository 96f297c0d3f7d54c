package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"testing"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/isa"
	"github.com/virec/virec/internal/workloads"
)

// TestResultBytesIdenticalAcrossExecutionPaths is the farm's counterpart
// to sweep's serial ≡ parallel law: for one spec, the result bytes must
// be identical whether computed
//
//  1. inline (Execute, no farm at all),
//  2. by a farm worker,
//  3. by a new farm generation re-running a job that was mid-attempt
//     when the previous one crashed, or
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

	// Sim and difftest results are compact JSON plus one newline.
	for i, spec := range specs[:3] {
		var compact bytes.Buffer
		if err := json.Compact(&compact, inline[i]); err != nil {
			t.Fatalf("%s: result is not JSON: %v", spec.Summary(), err)
		}
		compact.WriteByte('\n')
		if !bytes.Equal(compact.Bytes(), inline[i]) {
			t.Errorf("%s: result is not compact JSON and one newline (%d bytes, compact %d)",
				spec.Summary(), len(inline[i]), compact.Len())
		}
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

	// Path 3: post-crash re-run. Every first attempt blocks until the
	// farm is killed, so the journal's last word on each job is "start";
	// the next generation reopens the directory without the wrap and runs
	// each job again.
	opt3 := testOptions(t)
	opt3.Workers = len(specs)
	started := make(chan struct{}, len(specs))
	block := make(chan struct{})
	opt3.ExecWrap = func(job *Job, attempt int, next func() ([]byte, error)) ([]byte, error) {
		started <- struct{}{}
		<-block
		return nil, errors.New("process crashed mid-execution")
	}
	f3, err := Open(opt3)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(f3.Kill)
	f3.Start()
	ids := make([]uint64, len(specs))
	for i, spec := range specs {
		job, err := f3.Submit(spec)
		if err != nil {
			t.Fatalf("Submit(%s): %v", spec.Summary(), err)
		}
		ids[i] = job.ID
	}
	for range specs {
		<-started
	}
	f3.Kill()
	close(block) // the abandoned attempts finish; their results are discarded
	opt3.ExecWrap = nil
	f3 = openFarm(t, opt3)
	for i, spec := range specs {
		got := waitDone(t, f3, ids[i])
		if got.State != StateDone {
			t.Fatalf("%s after crash: state %s (error %q)", spec.Summary(), got.State, got.Error)
		}
		if got.Attempts != 2 {
			t.Fatalf("%s: attempts = %d, want 2", spec.Summary(), got.Attempts)
		}
		out, err := f3.Result(ids[i])
		if err != nil {
			t.Fatalf("Result(%s): %v", spec.Summary(), err)
		}
		if !bytes.Equal(out, inline[i]) {
			t.Errorf("%s: post-crash bytes differ from inline", spec.Summary())
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
	bumped, err := base.CacheKey(CodeVersion + "+1")
	if err != nil {
		t.Fatalf("CacheKey: %v", err)
	}
	if bumped == k1 {
		t.Fatal("code-version bump did not move the cache key")
	}
}

// TestKernelEditMovesDigest: a sim job's key frames its kernel's program
// digest, so editing a kernel moves the key even under an unbumped code
// version. One instruction changed gives another digest; the registered
// kernel's digest is taken once.
func TestKernelEditMovesDigest(t *testing.T) {
	w, ok := workloads.ByName("vecadd")
	if !ok {
		t.Fatal("no vecadd kernel")
	}
	d := programDigest(w)
	if again := programDigest(w); again != d {
		t.Fatal("a registered kernel's digest was taken twice")
	}
	insts := slices.Clone(w.Prog.Insts)
	i := slices.IndexFunc(insts, func(in isa.Inst) bool { return in.Op == isa.ADD })
	if i < 0 {
		t.Fatal("no ADD to edit in vecadd")
	}
	insts[i].Rm++ // add x6, x6, x7 reads x8 instead
	edited := &workloads.Spec{Name: w.Name, Prog: &asm.Program{Name: w.Prog.Name, Insts: insts}}
	if *programDigest(edited) == *d {
		t.Fatal("a kernel one instruction apart has the same program digest")
	}
}
