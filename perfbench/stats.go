package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1). If
// fewer than minTail samples would lie beyond it, it reports instead
// the highest percentile that has minTail samples beyond it. used is
// the quantile actually reported; both are 0 for an empty input.
func percentile(xs []float64, p float64) (v, used float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(n))) - 1
	if lim := n - 1 - minTail; idx > lim {
		idx = lim
	}
	if idx < 0 {
		idx = 0
	}
	return s[idx], float64(idx+1) / float64(n)
}

// windowed is a latency percentile taken per open-loop window.
type windowed struct {
	value   float64 // median over windows of the per-window percentile
	used    float64 // lowest quantile a window had to fall back to
	samples int     // samples over all windows
}

// windowPercentile applies percentile to the reads (or writes) of each
// window and reports the median over windows.
func windowPercentile(opens []openResult, writes bool, p float64) windowed {
	var w windowed
	var vals []float64
	w.used = p
	for _, o := range opens {
		xs := o.readLat
		if writes {
			xs = o.writeLat
		}
		v, used := percentile(xs, p)
		vals = append(vals, v)
		w.used = min(w.used, used)
		w.samples += len(xs)
	}
	w.value = median(vals)
	return w
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
