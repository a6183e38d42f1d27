package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); got != c.want {
			t.Errorf("%s: Mean(%v) = %g, want %g", c.name, c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %g, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %g, want 2", got)
	}
	if got := Variance([]float64{42}); got != 0 {
		t.Errorf("Variance of singleton = %g, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 7, 2}
	if v, i := Min(xs); v != -1 || i != 1 {
		t.Errorf("Min = (%g, %d), want (-1, 1)", v, i)
	}
	if v, i := Max(xs); v != 7 || i != 2 {
		t.Errorf("Max = (%g, %d), want (7, 2) (first occurrence)", v, i)
	}
	if v, i := Min(nil); v != 0 || i != -1 {
		t.Errorf("Min(nil) = (%g, %d), want (0, -1)", v, i)
	}
}

// Property: the mean always lies between min and max.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return Mean(xs) == 0
		}
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		m := Mean(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: variance is non-negative and shift-invariant.
func TestVarianceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(20)
		xs := make([]float64, n)
		shifted := make([]float64, n)
		shift := rng.Float64()*100 - 50
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			shifted[i] = xs[i] + shift
		}
		v := Variance(xs)
		if v < 0 {
			t.Fatalf("negative variance %g for %v", v, xs)
		}
		if sv := Variance(shifted); !almostEqual(v, sv, 1e-6*(1+v)) {
			t.Fatalf("variance not shift-invariant: %g vs %g", v, sv)
		}
	}
}

// Property: Sum equals n*Mean.
func TestSumMeanConsistency(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				xs = append(xs, v)
			}
		}
		return almostEqual(Sum(xs), Mean(xs)*float64(len(xs)), 1e-6*(1+math.Abs(Sum(xs))))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
