package difftest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/virec/virec/internal/asm"
	"github.com/virec/virec/internal/isa"
)

// raceEnabled is set when the race detector is on (race_test.go). Its
// sync.Pool drops a quarter of what it is given, so the analyzer's pooled
// scratch (a struct and six arrays) is sometimes built again under it.
var raceEnabled bool

// TestGeneratedProgramsUnchanged pins the generator's output: a SHA-256
// over the encoded programs (hint byte included) and MaxDyn of seeds
// 0–499 under GenConfigForSeed, the hints experiment's population. A
// change to the generator that moves one instruction, hint or budget
// fails here.
func TestGeneratedProgramsUnchanged(t *testing.T) {
	const want = "e2bdccbd0374b33255677fb2b5b79b855a8bd0a6db568106cf68f17689f95020"
	h := sha256.New()
	var buf []byte
	for seed := uint64(0); seed < 500; seed++ {
		k := Generate(seed, GenConfigForSeed(seed))
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(k.Prog.Insts)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(k.MaxDyn))
		for i := range k.Prog.Insts {
			buf = k.Prog.Insts[i].Encode(buf)
		}
		h.Write(buf)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("seeds 0-499 generate programs with SHA-256 %s, want %s", got, want)
	}
}

// TestGeneratedProgramsAllocatedOnce: Generate counts the program and its
// construct table before it allocates them, so each is one allocation at
// its exact length, and generating a long program costs as many
// allocations as a short one.
func TestGeneratedProgramsAllocatedOnce(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		k := Generate(seed, GenConfigForSeed(seed))
		if n, c := len(k.Prog.Insts), cap(k.Prog.Insts); n != c {
			t.Fatalf("seed %d: program has %d instructions in a slice of capacity %d", seed, n, c)
		}
		if n, c := len(k.cons), cap(k.cons); n != c {
			t.Fatalf("seed %d: construct table has %d entries in a slice of capacity %d", seed, n, c)
		}
	}
	short, long := DefaultGenConfig(), DefaultGenConfig()
	short.Insts, long.Insts = 4, 128
	ks, kl := Generate(1, short), Generate(1, long)
	if len(kl.Prog.Insts) < 4*len(ks.Prog.Insts) {
		t.Fatalf("long program has %d instructions, short %d; want a wider gap",
			len(kl.Prog.Insts), len(ks.Prog.Insts))
	}
	as := testing.AllocsPerRun(20, func() { Generate(1, short) })
	al := testing.AllocsPerRun(20, func() { Generate(1, long) })
	if al != as && !(raceEnabled && math.Abs(al-as) <= 7) {
		t.Errorf("Generate made %v allocations for %d instructions and %v for %d; want the same",
			as, len(ks.Prog.Insts), al, len(kl.Prog.Insts))
	}
}

// TestShrinkEditsConstructs applies every shrinker mode at every
// pre-order index of a kernel with a loop inside an if, followed by a
// leaf, and compares the edited listing, branch targets included, and
// construct table with the literal expected ones. A mode that cannot
// apply must say so.
func TestShrinkEditsConstructs(t *testing.T) {
	prog := asm.MustAssemble("edits", `
		cmp  x1, x2
		b.ne after
		movz x27, #4
	top:
		cbz  x1, skip
		add  x3, x3, x3
	skip:
		sub  x27, x27, #1
		cbnz x27, top
	after:
		add  x4, x3, x3
		halt
	`)
	k := &Kernel{Prog: prog, cons: []construct{
		{ifCons, 0, 7}, {loopCons, 2, 7}, {ifCons, 3, 5}, {leafCons, 4, 5}, {leafCons, 7, 8},
	}}
	const untouched = "cmp x1, x2; b.ne 7; movz x27, #4; cbz x1, 5; add x3, x3, x3; sub x27, x27, #1; cbnz x27, 3; add x4, x3, x3; halt" +
		" | if[0,7) loop[2,7) if[3,5) leaf[4,5) leaf[7,8)"
	const na = "does not apply"
	want := [][4]string{ // per construct: remove, unwrap, trip 1, half trip
		0: {
			"add x4, x3, x3; halt | leaf[0,1)",
			"movz x27, #4; cbz x1, 3; add x3, x3, x3; sub x27, x27, #1; cbnz x27, 1; add x4, x3, x3; halt" +
				" | loop[0,5) if[1,3) leaf[2,3) leaf[5,6)",
			na, na,
		},
		1: {
			"cmp x1, x2; b.ne 2; add x4, x3, x3; halt | if[0,2) leaf[2,3)",
			"cmp x1, x2; b.ne 4; cbz x1, 4; add x3, x3, x3; add x4, x3, x3; halt" +
				" | if[0,4) if[2,4) leaf[3,4) leaf[4,5)",
			strings.Replace(untouched, "#4", "#1", 1),
			strings.Replace(untouched, "#4", "#2", 1),
		},
		2: {
			"cmp x1, x2; b.ne 5; movz x27, #4; sub x27, x27, #1; cbnz x27, 3; add x4, x3, x3; halt" +
				" | if[0,5) loop[2,5) leaf[5,6)",
			"cmp x1, x2; b.ne 6; movz x27, #4; add x3, x3, x3; sub x27, x27, #1; cbnz x27, 3; add x4, x3, x3; halt" +
				" | if[0,6) loop[2,6) leaf[3,4) leaf[6,7)",
			na, na,
		},
		3: {
			"cmp x1, x2; b.ne 6; movz x27, #4; cbz x1, 4; sub x27, x27, #1; cbnz x27, 3; add x4, x3, x3; halt" +
				" | if[0,6) loop[2,6) if[3,4) leaf[6,7)",
			na, na, na,
		},
		4: {
			"cmp x1, x2; b.ne 7; movz x27, #4; cbz x1, 5; add x3, x3, x3; sub x27, x27, #1; cbnz x27, 3; halt" +
				" | if[0,7) loop[2,7) if[3,5) leaf[4,5)",
			na, na, na,
		},
	}
	if got := listing(prog.Insts, k.cons); got != untouched {
		t.Fatalf("kernel is\n%s\nwant\n%s", got, untouched)
	}
	for i := range k.cons {
		for mode, w := range want[i] {
			insts, cons, ok := k.mutate(i, mutMode(mode))
			got := na
			if ok {
				got = listing(insts, cons)
			}
			if got != w {
				t.Errorf("mode %d at construct %d:\n got %s\nwant %s", mode, i, got, w)
			}
		}
	}
	if got := listing(prog.Insts, k.cons); got != untouched {
		t.Errorf("mutating changed the kernel itself to\n%s", got)
	}
}

// listing renders a program and its construct table on one line.
func listing(insts []isa.Inst, cons []construct) string {
	var b strings.Builder
	for i := range insts {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(insts[i].String())
	}
	b.WriteString(" |")
	for _, c := range cons {
		fmt.Fprintf(&b, " %s[%d,%d)", [...]string{"leaf", "loop", "if"}[c.kind], c.start, c.end)
	}
	return b.String()
}
