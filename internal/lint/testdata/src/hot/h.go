// Package hot is hotpath-analyzer test fodder. root carries the hotpath
// directive; every "want" line must be flagged and everything else —
// including the unannotated notWalked — must stay silent.
package hot

import "fmt"

// debugHook stands in for an optional trace callback.
var debugHook func(int)

type record struct{ n int }

//virec:hotpath
func root(n int) int {
	m := map[int]int{n: n}       // want "map literal allocates"
	s := []int{n}                // want "slice literal allocates"
	p := new(int)                // want "new allocates"
	b := make([]byte, n)         // want "make allocates"
	fmt.Println(n)               // want "calls fmt.Println"
	f := func() int { return n } // want "closure allocates its environment"

	var boxed any
	boxed = n  // want "boxed into interface"
	sink(n)    // want "boxed into interface"
	_ = any(n) // want "boxed into interface"

	// Pointers store directly into an interface: no boxing.
	r := &record{n: n} // want "literal escapes to the heap"
	boxed = r

	//virec:alloc-ok suppression under test
	q := new(int)

	// A nil guard on a func-typed hook exempts nothing: the guarded body
	// is still on the hot path.
	if debugHook != nil {
		fmt.Println("hook", n) // want "calls fmt.Println"
	}

	// Failure paths may format freely.
	if n < 0 {
		panic(fmt.Sprintf("negative %d", n))
	}

	// append is deliberately not flagged (scratch-buffer idiom).
	b = append(b, byte(n))

	helper(n)
	return m[n] + s[0] + *p + len(b) + f() + *q + r.n + boxedLen(boxed)
}

// helper is reached transitively from root.
func helper(n int) *record {
	return &record{n: n} // want "literal escapes to the heap"
}

func sink(v any) {}

func boxedLen(v any) int {
	if v == nil {
		return 0
	}
	return 1
}

// queue is a generic type. The walk names a method by its receiver's type
// name without type arguments, so a call through an instantiation reaches
// the generic declaration, and grow is checked though it carries no
// directive.
type queue[T any] struct{ items []T }

func (q *queue[T]) grow(n int) {
	q.items = make([]T, 0, n) // want "make allocates"
}

//virec:hotpath
func genericRoot(q *queue[int], n int) {
	q.grow(n)
}

// notWalked is neither annotated nor reachable from a root: its
// allocations are fine.
func notWalked() []int {
	return make([]int, 8)
}
