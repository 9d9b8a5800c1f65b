package main

import "testing"

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}, {10000000, 99.99},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{1, 1}, {50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
}

func TestChunkPercentilesOrdersByOrigin(t *testing.T) {
	// 450 samples arriving out of order: the first 200 by origin time
	// read 1ms, the next 250 (one run: the 50-sample remainder joins it)
	// read 5ms.
	var samples []latSample
	for i := 449; i >= 0; i-- {
		ms := 1.0
		if i >= latChunk {
			ms = 5
		}
		samples = append(samples, latSample{at: int64(i), ms: ms})
	}
	got := chunkPercentiles(samples, 90)
	if len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Errorf("chunkPercentiles = %v, want [1 5]", got)
	}
	if got := chunkPercentiles(samples[len(samples)-10:], 50); len(got) != 1 || got[0] != 1 {
		t.Errorf("a short sample set is one run: got %v", got)
	}
	if got := chunkPercentiles(nil, 50); len(got) != 0 {
		t.Errorf("no samples, no runs: got %v", got)
	}
}
