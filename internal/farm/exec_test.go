package farm

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"github.com/virec/virec/internal/sim"
	"github.com/virec/virec/internal/vrmu"
)

// TestSimResultWrittenFromRegistry: a sim job's result, written from the
// run's registry, is byte for byte what marshalCanonical gives the
// SimResult of sim.Simulate, for every core kind on one and two cores,
// with faults on, on DRAM and on a fixed-latency memory, and for ViReC
// under every policy.
func TestSimResultWrittenFromRegistry(t *testing.T) {
	type simCase struct {
		name  string
		spec  SimSpec
		fixed int // FixedMemLatency, which a SimSpec cannot name
	}
	var cases []simCase
	for _, kind := range []string{"banked", "virec", "software", "prefetch-full", "prefetch-exact"} {
		for _, cores := range []int{1, 2} {
			s := SimSpec{CoreKind: kind, Cores: cores, Threads: 2, Workload: "gather", Iters: 16, Seed: 5}
			if kind == "virec" {
				s.CtxPct, s.Policy = 60, "LRC"
			}
			name := fmt.Sprintf("%s/%dcore", kind, cores)
			faulted := s
			faulted.Faults = "all"
			cases = append(cases, simCase{name, s, 0}, simCase{name + "/faults", faulted, 0},
				simCase{name + "/faults/fixed100", faulted, 100})
		}
	}
	for _, pol := range append(vrmu.AllPolicies(), vrmu.Belady, vrmu.LRCH) {
		cases = append(cases, simCase{"virec/" + pol.String(), SimSpec{CoreKind: "virec", Threads: 2,
			Workload: "spmv", Iters: 16, CtxPct: 60, Policy: pol.String(), Seed: 5}, 0})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg, err := c.spec.simConfig()
			if err != nil {
				t.Fatal(err)
			}
			cfg.FixedMemLatency = c.fixed
			got, err := execSim(&c.spec)
			if c.fixed > 0 {
				got, err = simResult(&c.spec, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := marshalCanonical(SimResult{
				Spec:    &c.spec,
				Cycles:  res.Cycles,
				Insts:   res.Insts,
				IPC:     strconv.FormatFloat(res.IPC, 'f', 6, 64),
				Metrics: res.Metrics,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("written result differs from encoding/json's:\n got %s\nwant %s", got, want)
			}
		})
	}
}
