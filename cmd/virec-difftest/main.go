// Command virec-difftest is the differential verification driver: it
// generates seeded constrained-random kernels and co-simulates each one
// in lock step against the functional interpreter across the provider ×
// policy × thread-count × fault-schedule matrix, shrinking and recording
// any divergence as a replayable artifact.
//
// Usage:
//
//	virec-difftest -n 200                 # seeds 0..199, full matrix
//	virec-difftest -seeds 500:1000       # explicit seed range
//	virec-difftest -scenarios virec/lrc/t8,banked/t4
//	virec-difftest -replay out/seed-0000000000000017.json
//	virec-difftest -n 500 -farm http://localhost:7741
//
// With -farm URL each seed becomes a job on a virec-farm server; the
// sweep aggregates the per-seed results and, on divergence, regenerates
// the kernel locally (generation is a pure function of the seed) to
// shrink and write the repro artifact.
//
// Exit status:
//
//	0  every seed clean
//	1  usage error (bad flags, bad seed range, bad scenario)
//	2  divergence found (the simulator and the reference disagree)
//	3  harness crash (a scenario failed to run, the sweep or farm
//	   errored, or a replay artifact could not be loaded)
//
// A run that sees both real divergences and harness crashes exits 2:
// a confirmed model bug outranks broken plumbing.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/virec/virec/internal/difftest"
	"github.com/virec/virec/internal/farm"
	"github.com/virec/virec/internal/sweep"
)

const (
	exitClean      = 0
	exitUsage      = 1
	exitDivergence = 2
	exitCrash      = 3
)

// isCrash reports whether a divergence records harness breakage rather
// than a genuine model/reference disagreement.
func isCrash(d *difftest.Divergence) bool {
	return d != nil && d.Kind == "run-error"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes its report to stdout
// and its diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("virec-difftest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n        = fs.Int("n", 0, "check seeds 0..n-1 (shorthand for -seeds 0:n)")
		seedsStr = fs.String("seeds", "", "seed range lo:hi (hi exclusive) or a single seed")
		parallel = fs.Int("parallel", 0, "worker goroutines (default GOMAXPROCS)")
		outDir   = fs.String("out", "difftest-repros", "directory for repro artifacts")
		replay   = fs.String("replay", "", "replay a repro artifact instead of sweeping")
		scStr    = fs.String("scenarios", "", "comma-separated scenario subset (default: full matrix)")
		shrinkN  = fs.Int("shrink-attempts", 800, "max differential checks the shrinker may spend (0 disables shrinking)")
		maxCyc   = fs.Uint64("max-cycles", 0, "per-scenario cycle budget (default 20M)")
		quiet    = fs.Bool("q", false, "only print failures and the final summary")
		farmURL  = fs.String("farm", "", "run each seed as a job on this virec-farm server")
		skipMode = fs.String("skipahead", "on", "timed-model clock skip-ahead: on or off (off ticks every cycle in every scenario)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitClean
		}
		return exitUsage
	}
	// usage reports a command-line problem; crash reports harness
	// breakage: the sweep or the farm failed in a way that is neither
	// clean nor a verified divergence.
	usage := func(err error) int {
		fmt.Fprintln(stderr, "virec-difftest:", err)
		return exitUsage
	}
	crash := func(err error) int {
		fmt.Fprintln(stderr, "virec-difftest:", err)
		return exitCrash
	}

	opts := difftest.CheckOpts{MaxCycles: *maxCyc}
	switch *skipMode {
	case "on":
	case "off":
		opts.ForceNoSkip = true
	default:
		return usage(fmt.Errorf("bad -skipahead %q: want on or off", *skipMode))
	}
	if opts.ForceNoSkip && *farmURL != "" {
		return usage(fmt.Errorf("-skipahead=off runs locally; it cannot be combined with -farm"))
	}
	var scenarioNames []string
	if *scStr != "" {
		for _, s := range strings.Split(*scStr, ",") {
			sc, err := difftest.ParseScenario(strings.TrimSpace(s))
			if err != nil {
				return usage(err)
			}
			opts.Scenarios = append(opts.Scenarios, sc)
			scenarioNames = append(scenarioNames, strings.TrimSpace(s))
		}
	}

	if *replay != "" {
		if *farmURL != "" {
			return usage(fmt.Errorf("-replay runs locally; it cannot be combined with -farm"))
		}
		return replayArtifact(*replay, opts, stdout, stderr)
	}

	lo, hi := uint64(0), uint64(0)
	switch {
	case *seedsStr != "":
		var err error
		if lo, hi, err = parseSeeds(*seedsStr); err != nil {
			return usage(err)
		}
	case *n > 0:
		hi = uint64(*n)
	default:
		return usage(fmt.Errorf("nothing to do: pass -n, -seeds or -replay"))
	}

	seeds := make([]uint64, 0, hi-lo)
	for s := lo; s < hi; s++ {
		seeds = append(seeds, s)
	}
	nScenarios := len(opts.Scenarios)
	if nScenarios == 0 {
		nScenarios = len(difftest.Matrix())
	}

	var commits uint64
	divergences, crashes := 0, 0
	if *farmURL != "" {
		if !*quiet {
			fmt.Fprintf(stdout, "difftest: %d seeds x %d scenarios via farm %s\n",
				len(seeds), nScenarios, *farmURL)
		}
		var err error
		commits, divergences, crashes, err = runOnFarm(
			*farmURL, seeds, scenarioNames, opts, *maxCyc, *shrinkN, *outDir, stderr)
		if err != nil {
			return crash(err)
		}
	} else {
		if !*quiet {
			fmt.Fprintf(stdout, "difftest: %d seeds x %d scenarios, %d workers\n",
				len(seeds), nScenarios, sweep.New(*parallel).Workers())
		}
		var err error
		commits, divergences, crashes, err = runLocal(seeds, opts, *parallel, *shrinkN, *outDir, stderr)
		if err != nil {
			return crash(err)
		}
	}

	fmt.Fprintf(stdout, "difftest: %d seeds, %d commits compared, %d divergences, %d harness crashes\n",
		len(seeds), commits, divergences, crashes)
	switch {
	case divergences > 0:
		return exitDivergence
	case crashes > 0:
		return exitCrash
	}
	return exitClean
}

// runLocal sweeps the seeds in-process with a worker pool.
func runLocal(seeds []uint64, opts difftest.CheckOpts, parallel, shrinkN int, outDir string, stderr io.Writer) (commits uint64, divergences, crashes int, err error) {
	type verdict struct {
		rep *difftest.Report
		sr  *difftest.ShrinkResult
	}
	// Each seed is independent; divergences are shrunk inside the worker
	// so the whole sweep parallelizes.
	results, err := sweep.Map(sweep.New(parallel), seeds,
		func(seed uint64, _ int) (verdict, error) {
			k := difftest.Generate(seed, difftest.GenConfigForSeed(seed))
			rep := difftest.Check(k, opts)
			v := verdict{rep: rep}
			if rep.Divergence != nil && shrinkN > 0 && !isCrash(rep.Divergence) {
				if sc, err := difftest.ParseScenario(rep.Divergence.Scenario); err == nil {
					v.sr = difftest.Shrink(k, sc, opts, shrinkN)
				}
			}
			if rep.Divergence != nil {
				reportDivergence(seed, k, rep.Divergence, v.sr, outDir, stderr)
			}
			return v, nil
		})
	if err != nil {
		return 0, 0, 0, err
	}
	for _, v := range results {
		commits += v.rep.Commits
		switch {
		case isCrash(v.rep.Divergence):
			crashes++
		case v.rep.Divergence != nil:
			divergences++
		}
	}
	return commits, divergences, crashes, nil
}

// runOnFarm submits one difftest job per seed, waits for all of them,
// and post-processes divergences locally: the kernel is regenerated from
// the seed (generation is deterministic), shrunk, and written as a repro
// artifact exactly as the in-process sweep would have done.
func runOnFarm(url string, seeds []uint64, scenarioNames []string, opts difftest.CheckOpts, maxCyc uint64, shrinkN int, outDir string, stderr io.Writer) (commits uint64, divergences, crashes int, err error) {
	ctx := context.Background()
	client := farm.NewClient(url)

	ids := make([]uint64, len(seeds))
	for i, seed := range seeds {
		job, err := client.Submit(ctx, &farm.Spec{
			Kind: farm.KindDifftest,
			Difftest: &farm.DifftestSpec{
				Seed:      seed,
				Scenarios: scenarioNames,
				MaxCycles: maxCyc,
			},
		})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("submitting seed %d: %w", seed, err)
		}
		ids[i] = job.ID
	}
	for i, id := range ids {
		out, _, err := client.WaitResult(ctx, id)
		if err != nil {
			// The job itself failed (crash, deadline): harness
			// trouble, not a verified divergence.
			fmt.Fprintf(stderr, "difftest: seed %d: %v\n", seeds[i], err)
			crashes++
			continue
		}
		var res farm.DifftestResult
		if err := json.Unmarshal(out, &res); err != nil {
			return 0, 0, 0, fmt.Errorf("seed %d: bad farm result: %w", seeds[i], err)
		}
		commits += res.Commits
		if res.Divergence == nil {
			continue
		}
		if isCrash(res.Divergence) {
			crashes++
			fmt.Fprintf(stderr, "difftest: seed %d: %v\n", seeds[i], res.Divergence)
			continue
		}
		divergences++
		k := difftest.Generate(seeds[i], difftest.GenConfigForSeed(seeds[i]))
		var sr *difftest.ShrinkResult
		if shrinkN > 0 {
			if sc, err := difftest.ParseScenario(res.Divergence.Scenario); err == nil {
				sr = difftest.Shrink(k, sc, opts, shrinkN)
			}
		}
		reportDivergence(seeds[i], k, res.Divergence, sr, outDir, stderr)
	}
	return commits, divergences, crashes, nil
}

// reportDivergence writes the repro artifact and a stderr notice for one
// diverged seed.
func reportDivergence(seed uint64, k *difftest.Kernel, d *difftest.Divergence, sr *difftest.ShrinkResult, outDir string, stderr io.Writer) {
	sc, _ := difftest.ParseScenario(d.Scenario)
	art := difftest.NewArtifact(k, sc, d, sr)
	if path, werr := art.Write(outDir); werr == nil {
		fmt.Fprintf(stderr, "difftest: seed %d: %v\n  repro: %s\n", seed, d, path)
	} else {
		fmt.Fprintf(stderr, "difftest: seed %d: %v\n  (artifact write failed: %v)\n", seed, d, werr)
	}
}

func replayArtifact(path string, opts difftest.CheckOpts, stdout, stderr io.Writer) int {
	art, err := difftest.LoadArtifact(path)
	if err != nil {
		fmt.Fprintln(stderr, "virec-difftest:", err)
		return exitCrash
	}
	fmt.Fprintf(stdout, "replaying seed %d under %s\n", art.Seed, art.Scenario)
	rep, err := art.Replay(opts)
	if err != nil {
		fmt.Fprintln(stderr, "virec-difftest:", err)
		return exitCrash
	}
	switch {
	case isCrash(rep.Divergence):
		fmt.Fprintf(stdout, "harness crash: %v\n", rep.Divergence)
		return exitCrash
	case rep.Divergence != nil:
		fmt.Fprintf(stdout, "reproduced: %v\n", rep.Divergence)
		return exitDivergence
	}
	fmt.Fprintf(stdout, "clean: %d commits matched (the recorded divergence did not reproduce)\n", rep.Commits)
	return exitClean
}

func parseSeeds(s string) (lo, hi uint64, err error) {
	if i := strings.IndexByte(s, ':'); i >= 0 {
		if lo, err = strconv.ParseUint(s[:i], 0, 64); err != nil {
			return 0, 0, fmt.Errorf("bad seed range %q: %v", s, err)
		}
		if hi, err = strconv.ParseUint(s[i+1:], 0, 64); err != nil {
			return 0, 0, fmt.Errorf("bad seed range %q: %v", s, err)
		}
		if hi <= lo {
			return 0, 0, fmt.Errorf("empty seed range %q", s)
		}
		return lo, hi, nil
	}
	if lo, err = strconv.ParseUint(s, 0, 64); err != nil {
		return 0, 0, fmt.Errorf("bad seed %q: %v", s, err)
	}
	return lo, lo + 1, nil
}
