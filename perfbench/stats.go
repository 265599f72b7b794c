package main

import (
	"math"
	"slices"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is the number of samples that must lie beyond a reported tail
// percentile.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least tailBeyond
// samples beyond it: the (tailBeyond+1)-th largest sample, together with the
// percentile it stands at (the share of samples at or below its position)
// and the sample count. ok is false when xs has too few samples for any
// percentile to qualify.
func tail(xs []float64) (v, pct float64, n int, ok bool) {
	n = len(xs)
	if n <= tailBeyond {
		return math.NaN(), 0, n, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := n - 1 - tailBeyond
	return s[i], 100 * float64(i+1) / float64(n), n, true
}

// windowTail applies tail to every full window of w consecutive samples of
// each rank and returns the median of the window tails, the percentile each
// stands at, the number of windows and the samples they hold. A window keeps
// the percentile fixed however long a run is; over a whole run it would
// drift towards the rarest hiccup as the sample count grows. With no full
// window it falls back to tail over all samples.
func windowTail(perRank [][]float64, w int) (v, pct float64, windows, n int, ok bool) {
	var tails []float64
	for _, xs := range perRank {
		for i := 0; i+w <= len(xs); i += w {
			t, p, _, _ := tail(xs[i : i+w])
			tails, pct = append(tails, t), p
			n += w
		}
	}
	if len(tails) > 0 {
		return median(tails), pct, len(tails), n, true
	}
	var all []float64
	for _, xs := range perRank {
		all = append(all, xs...)
	}
	v, pct, n, ok = tail(all)
	return v, pct, 1, n, ok
}
