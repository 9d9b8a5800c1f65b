package main

import (
	"math"
	"sort"
)

// tailLadder is the percentile ladder latency tails are reported on.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile returns the highest percentile on the ladder that still
// has at least ten samples beyond it out of n: p qualifies when
// n·(1 − p/100) ≥ 10. Below 20 samples not even the median qualifies and
// it returns 0.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. xs is sorted in place. An empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	rank = max(1, min(rank, len(xs)))
	return xs[rank-1]
}

// median is the 50th percentile of xs (sorted in place).
func median(xs []float64) float64 { return percentile(xs, 50) }

// latSample is one match event's latency and the instant its frame
// entered the system (due, or pulled), in ns on the round's clock.
type latSample struct {
	at int64
	ms float64
}

// latChunk is how many consecutive samples one latency percentile is
// taken over: enough for ten samples beyond p90 twice over.
const latChunk = 200

// chunkPercentiles orders samples by when their frames entered the
// system, cuts them into runs of latChunk (a short remainder joins the
// run before it) and returns percentile p of each run. The reported
// latency is the median of these: a burst of interference from outside
// the program moves a few runs, not the figure.
func chunkPercentiles(samples []latSample, p float64) []float64 {
	s := append([]latSample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].at < s[j].at })
	var out []float64
	for start := 0; start < len(s); {
		end := start + latChunk
		if len(s)-end < latChunk {
			end = len(s)
		}
		ms := make([]float64, 0, end-start)
		for _, x := range s[start:end] {
			ms = append(ms, x.ms)
		}
		out = append(out, percentile(ms, p))
		start = end
	}
	return out
}
