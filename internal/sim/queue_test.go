package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// checkQueue compares q with the plain-slice model: same length, same
// elements in order, and every slot outside the live range zeroed.
func checkQueue(t *testing.T, step int, q *Queue[*int], model []*int) {
	t.Helper()
	if q.Len() != len(model) {
		t.Fatalf("step %d: Len = %d, model has %d", step, q.Len(), len(model))
	}
	for i, want := range model {
		if got := q.At(i); got != want {
			t.Fatalf("step %d: At(%d) = %d, model has %d", step, i, *got, *want)
		}
	}
	for k := q.n; k < len(q.buf); k++ {
		if slot := q.buf[(q.head+k)&(len(q.buf)-1)]; slot != nil {
			t.Fatalf("step %d: vacated slot %d still holds %d", step, k, *slot)
		}
	}
}

// TestQueueMatchesSliceModel drives a queue and a plain slice through the
// same random PushBack / PopFront / RemoveAt sequence. The push bias
// drifts up and down, so the live range wraps around the backing array at
// every capacity the queue grows through, and removals land at the head,
// the tail and on both sides of the middle.
func TestQueueMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[*int]
	var model []*int
	wrappedGrowths := map[int]bool{} // capacity grown from while the live range wrapped
	removals := map[string]int{}
	next := 0
	for step := 0; step < 36000; step++ {
		// Drift up to ~600 elements and back down, three times over.
		pushP := 0.55
		if (step/6000)%2 == 1 {
			pushP = 0.45
		}
		switch r := rng.Float64(); {
		case r < pushP || len(model) == 0:
			if q.n == len(q.buf) && q.head != 0 {
				wrappedGrowths[len(q.buf)] = true
			}
			v := new(int)
			*v = next
			next++
			q.PushBack(v)
			model = append(model, v)
		case r < pushP+(1-pushP)/2:
			got := q.PopFront()
			if got != model[0] {
				t.Fatalf("step %d: PopFront = %d, model front %d", step, *got, *model[0])
			}
			model = model[1:]
		default:
			var i int
			switch rng.Intn(4) {
			case 0:
				i = 0
			case 1:
				i = len(model) - 1
			default:
				i = rng.Intn(len(model))
			}
			switch {
			case i == 0:
				removals["head"]++
			case i == len(model)-1:
				removals["tail"]++
			case i < len(model)-1-i:
				removals["front half"]++
			default:
				removals["back half"]++
			}
			got := q.RemoveAt(i)
			if got != model[i] {
				t.Fatalf("step %d: RemoveAt(%d) = %d, model has %d", step, i, *got, *model[i])
			}
			model = slices.Delete(model, i, i+1)
		}
		checkQueue(t, step, &q, model)
	}
	for c := minQueueCap; c < len(q.buf); c *= 2 {
		if !wrappedGrowths[c] {
			t.Errorf("never grew from capacity %d with a wrapped live range", c)
		}
	}
	if len(q.buf) < 512 {
		t.Errorf("queue only grew to %d slots; the sequence is too shallow", len(q.buf))
	}
	for _, k := range []string{"head", "tail", "front half", "back half"} {
		if removals[k] == 0 {
			t.Errorf("no RemoveAt on the %s", k)
		}
	}
}

func TestQueueOutOfRangePanics(t *testing.T) {
	var q Queue[int]
	q.PushBack(1)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"At(1)", func() { q.At(1) }},
		{"At(-1)", func() { q.At(-1) }},
		{"RemoveAt(1)", func() { q.RemoveAt(1) }},
		{"second PopFront", func() { q.PopFront(); q.PopFront() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a one-element queue did not panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

func TestQueueZeroAllocSteadyState(t *testing.T) {
	var q Queue[*int]
	v := new(int)
	for range 100 {
		q.PushBack(v)
	}
	if n := testing.AllocsPerRun(1000, func() {
		q.PushBack(v)
		q.PopFront()
	}); n != 0 {
		t.Errorf("warmed PushBack+PopFront: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		q.PushBack(v)
		q.RemoveAt(q.Len() / 3)
	}); n != 0 {
		t.Errorf("warmed PushBack+RemoveAt: %v allocs/op, want 0", n)
	}
}

// BenchmarkQueueFIFO measures one PushBack+PopFront pair at a standing
// depth of 4096, the depth of a deep posted-receive queue.
func BenchmarkQueueFIFO(b *testing.B) {
	var q Queue[*int]
	v := new(int)
	for range 4096 {
		q.PushBack(v)
	}
	for b.Loop() {
		q.PushBack(v)
		q.PopFront()
	}
}
