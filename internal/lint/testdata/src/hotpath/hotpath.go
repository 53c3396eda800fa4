// Package hotpath is a hotpathalloc fixture. The package name is not
// simulation-visible — hotpathalloc applies wherever a function is
// annotated, so the zero-alloc contract also covers helpers that
// sim-visible code calls into.
package hotpath

import "fmt"

// Sink takes an interface, to exercise the boxing check.
func Sink(v any) {}

// process is annotated: every allocation-inducing construct below is a
// finding.
//
//omxlint:hotpath
func process(xs []int, n int) int {
	buf := make([]int, n)        // want `make in hot path process allocates`
	buf = append(buf, n)         // want `append in hot path process`
	p := new(int)                // want `new in hot path process allocates`
	pair := []int{n, n}          // want `slice literal in hot path process`
	fmt.Println(n)               // want `fmt\.Println call in hot path process`
	Sink(n)                      // want `argument of type int boxed into interface parameter`
	f := func() int { return n } // want `closure literal in hot path process`
	return len(buf) + *p + pair[0] + f()
}

// build exercises the remaining constructs.
//
//omxlint:hotpath
func build(name string, raw []byte) string {
	go func() {}()         // want `go statement in hot path build` `closure literal in hot path build`
	s := string(raw)       // want `conversion \[\]byte -> string in hot path build`
	m := map[string]bool{} // want `map literal in hot path build`
	m[name] = m[s]         // want `map index in hot path build hashes the key on every call` `map index in hot path build hashes the key on every call`
	delete(m, s)           // want `map delete in hot path build hashes the key on every call`
	e := &event{}          // want `address of composite literal in hot path build`
	_ = e
	return name + s // want `string concatenation in hot path build`
}

type event struct{ seq uint64 }

// cold is NOT annotated: the same constructs draw no findings.
func cold(n int) []int {
	buf := make([]int, n)
	return append(buf, n)
}

// guarded shows the two blessed escape shapes: a panic subtree is cold by
// definition, and an audited append cites its dynamic guard.
//
//omxlint:hotpath
func guarded(free []*event, ev *event) []*event {
	if ev == nil {
		panic(fmt.Sprintf("nil event on free list of %d", len(free)))
	}
	//omxlint:allow hotpathalloc: fixture — free-list growth is amortized and guarded by AllocsPerRun
	return append(free, ev)
}
