package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %g, want 0", got)
	}
}

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 0.999, true}, // 10 samples beyond the 9990th
		{9999, 0.99, true},   // p99.9 would leave 9
		{1000, 0.99, true},
		{999, 0.9, true},
		{100, 0.9, true},
		{99, 0.5, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		q, v, ok := tailQuantile(seq(c.n))
		if q != c.want || ok != c.ok {
			t.Errorf("n=%d: tail quantile %g (ok %v), want %g (ok %v)", c.n, q, ok, c.want, c.ok)
			continue
		}
		if ok {
			beyond := c.n - int(v)
			if beyond < 10 {
				t.Errorf("n=%d: p%g = %g leaves %d samples beyond, want at least 10", c.n, q*100, v, beyond)
			}
		}
	}
}

func TestWindowedQuantileIgnoresOneBadWindow(t *testing.T) {
	xs := seq(6000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 100; i++ {
		xs[i] = math.Inf(1) // one stalled window
	}
	if got := windowedQuantile(xs, 0.99, 2000); got != 1 {
		t.Errorf("windowed p99 = %g, want 1 (two of three windows are clean)", got)
	}
	if got := quantile(sortedCopy(xs), 0.99); !math.IsInf(got, 1) {
		t.Errorf("whole-run p99 = %g, want +Inf", got)
	}
}
