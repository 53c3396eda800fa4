package sim

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGDeriveIndependent(t *testing.T) {
	root := NewRNG(1)
	a := root.Derive(1)
	b := root.Derive(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("derived streams collided %d times", same)
	}
}

func TestRNGDeriveStable(t *testing.T) {
	a := NewRNG(5).Derive(9)
	b := NewRNG(5).Derive(9)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Derive is not a pure function of (seed, tag)")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(4)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Errorf("value %d never drawn in 10000 tries", i)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestJitterStats(t *testing.T) {
	r := NewRNG(11)
	const mean, sd = 10000, 500
	var sum, sum2 float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := float64(r.Jitter(mean, sd))
		sum += v
		sum2 += v * v
	}
	m := sum / n
	s := math.Sqrt(sum2/n - m*m)
	if math.Abs(m-mean) > 50 {
		t.Errorf("jitter mean %.1f, want ~%d", m, mean)
	}
	if math.Abs(s-sd) > 60 {
		t.Errorf("jitter sd %.1f, want ~%d", s, sd)
	}
}

func TestJitterNonNegative(t *testing.T) {
	r := NewRNG(12)
	for i := 0; i < 10000; i++ {
		if v := r.Jitter(100, 400); v < 0 {
			t.Fatalf("negative jitter %d", v)
		}
	}
}

func TestJitterZeroSD(t *testing.T) {
	r := NewRNG(13)
	if v := r.Jitter(42, 0); v != 42 {
		t.Fatalf("Jitter(42, 0) = %d, want 42", v)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(14)
	const mean = 5000
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(mean))
	}
	m := sum / n
	if math.Abs(m-mean) > mean*0.05 {
		t.Errorf("Exp mean %.1f, want ~%d", m, mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(15)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("Bool(0.3) hit rate %.3f", frac)
	}
}

// jitterPolar is Jitter as it was before the clamp shortcut: the full
// polar draw, then scale, shift and clamp. TestJitterClampShortcutExact
// holds Jitter to it value for value.
func jitterPolar(r *RNG, mean, sd Time) Time {
	if sd == 0 {
		return mean
	}
	var n float64
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			n = u * math.Sqrt(-2*math.Log(s)/s)
			break
		}
	}
	v := float64(mean) + n*float64(sd)
	if v < 0 {
		return 0
	}
	return Time(v)
}

// TestJitterClampShortcutExact checks that skipping the log and square
// root for draws that clamp to zero changes no value and no stream: each
// case draws 10^6 values from Jitter and from the full formula on equal
// seeds, and both the values and the final generator states must match.
func TestJitterClampShortcutExact(t *testing.T) {
	cases := []struct {
		name     string
		mean, sd Time
	}{
		{"zero-mean", 0, 150},
		{"positive-mean", 400, 150},
		{"negative-mean", -200, 150},
		{"zero-mean-negative-sd", 0, -150},
		{"zero-sd", 300, 0},
	}
	const draws = 1_000_000
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seed := uint64(100 + i)
			got, want := NewRNG(seed), NewRNG(seed)
			zeros := 0
			for k := 0; k < draws; k++ {
				g, w := got.Jitter(c.mean, c.sd), jitterPolar(want, c.mean, c.sd)
				if g != w {
					t.Fatalf("draw %d: Jitter(%d, %d) = %d, full formula %d", k, c.mean, c.sd, g, w)
				}
				if g == 0 {
					zeros++
				}
			}
			if got.state != want.state {
				t.Fatalf("generator state %#x after %d draws, full formula %#x", got.state, draws, want.state)
			}
			t.Logf("%d of %d draws clamped to 0", zeros, draws)
		})
	}
}
