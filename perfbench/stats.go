package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile (0..1) of an ascending slice, linearly
// interpolated between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	switch len(sorted) {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailBeyond is the number of samples that must lie above the reported
// tail value.
const tailBeyond = 10

// tail returns the highest percentile that still has tailBeyond samples
// above it: the value of rank n-tailBeyond (1-based) and that rank's
// percentile. With too few samples it falls back to the maximum.
func tail(xs []float64) (value, pct float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	if n <= tailBeyond {
		return s[n-1], 100
	}
	k := n - tailBeyond
	return s[k-1], 100 * float64(k) / float64(n)
}

// interval is a closed time interval in nanoseconds since the run's
// epoch.
type interval struct{ lo, hi int64 }

// coveredWithin is the length of the union of ivs, clipped to within.
func coveredWithin(within interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		lo, hi := max(iv.lo, within.lo), min(iv.hi, within.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	started := false
	for _, iv := range clipped {
		if !started || iv.lo > curHi {
			if started {
				total += curHi - curLo
			}
			curLo, curHi, started = iv.lo, iv.hi, true
			continue
		}
		curHi = max(curHi, iv.hi)
	}
	if started {
		total += curHi - curLo
	}
	return total
}
