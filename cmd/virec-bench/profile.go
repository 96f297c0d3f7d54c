package main

import (
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// stack is one CPU-profile stack with the time sampled in it; frames[0]
// is the leaf.
type stack struct {
	secs   float64
	frames []string
}

// readProfiles merges CPU profiles through `go tool pprof -traces`, which
// ships with the toolchain, and returns their stacks.
func readProfiles(files []string) ([]stack, error) {
	if len(files) == 0 {
		return nil, nil
	}
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, files...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTraces(string(out)), nil
}

// parseTraces reads pprof's -traces text: blocks separated by dashed
// lines, each starting with "<time>   <leaf frame>" followed by one caller
// frame per line.
func parseTraces(text string) []stack {
	var out []stack
	var cur *stack
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		f := strings.TrimSpace(line)
		if f == "" {
			continue
		}
		if cur == nil {
			val, frame, ok := strings.Cut(f, " ")
			d, err := time.ParseDuration(val)
			if !ok || err != nil {
				continue // the header before the first block
			}
			out = append(out, stack{secs: d.Seconds()})
			cur = &out[len(out)-1]
			f = strings.TrimSpace(frame)
		}
		cur.frames = append(cur.frames, strings.TrimSuffix(f, " (inline)"))
	}
	return out
}

// packageOf returns the import path of a profiled function name such as
// "github.com/virec/virec/internal/cpu.(*Core).Tick" or
// "github.com/virec/virec/internal/sweep.MapCtx[go.shape...].func1".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf names the layer a package's self time is charged to.
func layerOf(pkg string) string {
	if l, ok := hostLayers[pkg]; ok {
		return l
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") {
		return "goruntime"
	}
	return "other"
}

// simRunFrame is the simulator's run loop, whose cumulative profile time
// cross-checks the span around it.
const simRunFrame = "github.com/virec/virec/internal/sim.(*System).Run"

// attribution is the host time a profile charges to each layer by leaf
// frame, plus the cumulative time under the simulator's run loop.
type attribution struct {
	self   map[string]float64
	total  float64
	simRun float64
}

func attribute(stacks []stack) attribution {
	a := attribution{self: map[string]float64{}}
	for _, s := range stacks {
		if len(s.frames) == 0 {
			continue
		}
		a.self[layerOf(packageOf(s.frames[0]))] += s.secs
		a.total += s.secs
		for _, f := range s.frames {
			if f == simRunFrame {
				a.simRun += s.secs
				break
			}
		}
	}
	return a
}
