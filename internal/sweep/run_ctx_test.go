package sweep

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
)

// TestRunContextCancelMidSweep is the supervision-seam proof: cancelling
// a sweep between points returns promptly with a full-length, grid-ordered
// result set in which completed points carry real measurements (bit-
// identical to an uncancelled run) and skipped points carry the
// cancellation cause — the worker pool never hangs and never starts a new
// point after the cancel.
func TestRunContextCancelMidSweep(t *testing.T) {
	g := Grid{
		Strategies: []nic.Strategy{nic.StrategyTimeout},
		Delays:     []sim.Time{25 * sim.Microsecond, 75 * sim.Microsecond},
		Sizes:      []int{1, 128, 4096},
		Seeds:      []uint64{1, 7},
		Iters:      3,
	}
	full, err := Run(g, 1)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Cancel as soon as the first result lands: on a single worker the
	// remaining points must all be skipped.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var observed atomic.Int64
	done := make(chan struct{})
	var partial Results
	var perr error
	go func() {
		defer close(done)
		partial, perr = RunContext(ctx, g, 1, func(Result) {
			if observed.Add(1) == 1 {
				cancel()
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled sweep did not return: worker pool hung")
	}

	if perr == nil || !errors.Is(perr, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled in the chain", perr)
	}
	if len(partial) != len(full) {
		t.Fatalf("partial result length %d, want full grid length %d", len(partial), len(full))
	}
	ran, skipped := 0, 0
	for i, r := range partial {
		if r.Index != i {
			t.Errorf("result %d carries index %d", i, r.Index)
		}
		if strings.HasPrefix(r.Err, "cancelled: ") {
			skipped++
			if r.Strategy == "" || r.Seed == 0 {
				t.Errorf("skipped point %d lost its coordinates: %+v", i, r)
			}
			continue
		}
		ran++
		// reflect.DeepEqual: Result grew a series slice, so == no longer
		// compiles; the identity check stays exhaustive.
		if !reflect.DeepEqual(r, full[i]) {
			t.Errorf("completed point %d differs from the uncancelled run:\n got %+v\nwant %+v", i, r, full[i])
		}
	}
	if ran == 0 || skipped == 0 {
		t.Fatalf("ran=%d skipped=%d: the cancel landed outside the sweep (want a genuine partial)", ran, skipped)
	}
	if n := int(observed.Load()); n != ran {
		t.Errorf("observer saw %d results, %d points completed", n, ran)
	}
}

// TestRunContextPreCancelled pins the degenerate case: an already-dead
// context runs nothing, and every point reports the cause.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := Grid{Sizes: []int{1, 128}, Iters: 2}
	rs, err := RunContext(ctx, g, 4, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if len(rs) != g.Size() {
		t.Fatalf("got %d results, want %d", len(rs), g.Size())
	}
	for i, r := range rs {
		if !strings.HasPrefix(r.Err, "cancelled: ") {
			t.Errorf("point %d ran under a cancelled context (err %q)", i, r.Err)
		}
	}
}

// TestCanonicalGrid pins the cache-key form: equivalent spellings of the
// same sweep canonicalize identically.
func TestCanonicalGrid(t *testing.T) {
	a := Grid{Sizes: []int{128}}.Canonical()
	b := Grid{Sizes: []int{128}, Iters: 30}.Canonical()
	if a.Iters != b.Iters || len(a.Strategies) != len(b.Strategies) {
		t.Errorf("equivalent grids canonicalized differently: %+v vs %+v", a, b)
	}
}
