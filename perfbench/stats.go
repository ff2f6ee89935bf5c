package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted
// samples, or 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tailQuantiles are the candidates tailQuantile picks from, highest first.
var tailQuantiles = []float64{0.9999, 0.999, 0.99, 0.9, 0.5}

// tailQuantile returns the highest quantile among tailQuantiles that leaves
// at least ten samples beyond its nearest-rank position, with its value. A
// tail read from fewer samples is one outlier's worth of noise. ok is false
// when even the median leaves fewer than ten samples beyond it.
func tailQuantile(sorted []float64) (q, v float64, ok bool) {
	n := len(sorted)
	for _, q := range tailQuantiles {
		rank := int(math.Ceil(q * float64(n)))
		if n-rank >= 10 {
			return q, sorted[rank-1], true
		}
	}
	return 0, 0, false
}

// sortedCopy returns the samples sorted ascending, leaving the input alone.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of the samples (the mean of the middle two for
// an even count), or 0 for none.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// windowedQuantile splits the samples, in completion order, into windows of
// at least minPerWindow samples and returns the median across windows of
// each window's q-quantile. One stall inflates one window's tail, not the
// run's figure.
func windowedQuantile(xs []float64, q float64, minPerWindow int) float64 {
	if len(xs) < 2*minPerWindow {
		return quantile(sortedCopy(xs), q)
	}
	windows := len(xs) / minPerWindow
	per := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		lo, hi := w*len(xs)/windows, (w+1)*len(xs)/windows
		per = append(per, quantile(sortedCopy(xs[lo:hi]), q))
	}
	return median(per)
}

// procUsage is the process's CPU time, peak resident set size and
// cumulative heap allocation.
type procUsage struct {
	cpu     time.Duration
	maxRSSB int64
	allocB  uint64
}

func readUsage() procUsage {
	var u procUsage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.maxRSSB = ru.Maxrss * 1024 // Linux reports kilobytes
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		u.allocB = s[0].Value.Uint64()
	}
	return u
}
