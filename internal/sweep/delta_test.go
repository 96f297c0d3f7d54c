package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/telemetry"
	"github.com/virec/virec/internal/vrmu"
	"github.com/virec/virec/internal/workloads"
)

func deltaCfgs(t *testing.T) []sim.Config {
	t.Helper()
	w, ok := workloads.ByName("gather")
	if !ok {
		t.Fatal("gather workload missing")
	}
	var cfgs []sim.Config
	for _, threads := range []int{2, 4} {
		cfgs = append(cfgs, sim.Config{
			Kind: sim.ViReC, ThreadsPerCore: threads,
			Workload: w, Iters: 24,
			ContextPct: 80, Policy: vrmu.LRC,
		})
	}
	return cfgs
}

// encodeStreams renders per-job delta streams the way virec-experiments
// does: concatenated JSONL in submission order.
func encodeStreams(t *testing.T, streams [][]*telemetry.Delta) []byte {
	t.Helper()
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for _, stream := range streams {
		for _, d := range stream {
			if err := enc.Encode(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out.Bytes()
}

// TestSimsDeltasSerialParallelByteIdentical is the sweep half of the
// delta-determinism satellite: same configs + same cadence must produce
// byte-identical delta streams whether jobs run inline or across a pool.
func TestSimsDeltasSerialParallelByteIdentical(t *testing.T) {
	cfgs := deltaCfgs(t)
	const every = 200

	serialRes, serialStreams, err := SimsDeltas(context.Background(), Serial, cfgs, every)
	if err != nil {
		t.Fatal(err)
	}
	parRes, parStreams, err := SimsDeltas(context.Background(), New(4), cfgs, every)
	if err != nil {
		t.Fatal(err)
	}

	a, b := encodeStreams(t, serialStreams), encodeStreams(t, parStreams)
	if !bytes.Equal(a, b) {
		t.Fatalf("delta streams differ between serial and parallel execution:\nserial %d bytes, parallel %d bytes", len(a), len(b))
	}

	// Each stream folds to exactly its job's final pull snapshot.
	for i, stream := range serialStreams {
		if len(stream) == 0 {
			t.Fatalf("job %d emitted no deltas", i)
		}
		if !stream[0].Reset {
			t.Fatalf("job %d stream does not start with a Reset head", i)
		}
		var fold telemetry.Fold
		for _, d := range stream {
			if err := fold.Apply(d); err != nil {
				t.Fatalf("job %d: %v", i, err)
			}
		}
		if ok, msg := fold.Equal(serialRes[i].Metrics); !ok {
			t.Fatalf("job %d: folded stream != Result.Metrics: %s", i, msg)
		}
		if ok, msg := fold.Equal(parRes[i].Metrics); !ok {
			t.Fatalf("job %d: serial fold != parallel Result.Metrics: %s", i, msg)
		}
	}
}
