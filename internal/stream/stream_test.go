package stream

import (
	"errors"
	"math"
	"testing"

	"vmq/internal/video"
)

func TestHoppingWindowsTile(t *testing.T) {
	src := FromStream(video.NewStream(video.Jackson(), 1))
	wins, err := HoppingWindows(src, 100, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 5 {
		t.Fatalf("got %d windows", len(wins))
	}
	for i, w := range wins {
		if len(w.Frames) != 100 {
			t.Fatalf("window %d has %d frames", i, len(w.Frames))
		}
		if w.Start != i*100 {
			t.Fatalf("window %d start = %d", i, w.Start)
		}
		if w.Frames[0].Index != i*100 {
			t.Fatalf("window %d first frame index = %d", i, w.Frames[0].Index)
		}
	}
}

func TestHoppingWindowsWithGap(t *testing.T) {
	src := FromStream(video.NewStream(video.Jackson(), 2))
	wins, err := HoppingWindows(src, 10, 25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if wins[1].Frames[0].Index != 25 || wins[2].Frames[0].Index != 50 {
		t.Fatalf("gap handling wrong: %d, %d", wins[1].Frames[0].Index, wins[2].Frames[0].Index)
	}
}

func TestHoppingWindowsErrors(t *testing.T) {
	src := FromStream(video.NewStream(video.Jackson(), 3))
	if _, err := HoppingWindows(src, 0, 1, 1); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := HoppingWindows(src, 10, 5, 1); err == nil {
		t.Error("overlapping windows accepted")
	}
	if _, err := HoppingWindows(src, 10, 10, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestSlidingWindowsOverlap(t *testing.T) {
	src := FromStream(video.NewStream(video.Jackson(), 4))
	wins, err := SlidingWindows(src, 10, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 4 {
		t.Fatalf("got %d windows", len(wins))
	}
	for i, w := range wins {
		if len(w.Frames) != 10 {
			t.Fatalf("window %d size %d", i, len(w.Frames))
		}
		if w.Start != i*3 || w.Frames[0].Index != i*3 {
			t.Fatalf("window %d starts at %d (frame %d)", i, w.Start, w.Frames[0].Index)
		}
	}
	// Overlapping region is shared: frames 3..9 of window 0 equal frames
	// 0..6 of window 1.
	for j := 0; j < 7; j++ {
		if wins[0].Frames[j+3] != wins[1].Frames[j] {
			t.Fatalf("overlap frame %d not shared", j)
		}
	}
}

func TestSlidingWindowsDelegatesWhenNonOverlapping(t *testing.T) {
	src := FromStream(video.NewStream(video.Jackson(), 5))
	wins, err := SlidingWindows(src, 5, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if wins[2].Start != 10 {
		t.Fatalf("delegation wrong: start %d", wins[2].Start)
	}
	if _, err := SlidingWindows(src, 0, 1, 1); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestUniformSamplerDistinctAndInRange(t *testing.T) {
	s := NewUniformSampler(1)
	for trial := 0; trial < 50; trial++ {
		idx := s.Sample(100, 20)
		if len(idx) != 20 {
			t.Fatalf("got %d indices", len(idx))
		}
		seen := map[int]bool{}
		for _, i := range idx {
			if i < 0 || i >= 100 {
				t.Fatalf("index out of range: %d", i)
			}
			if seen[i] {
				t.Fatalf("duplicate index %d", i)
			}
			seen[i] = true
		}
	}
	if got := s.Sample(5, 10); len(got) != 5 {
		t.Fatalf("k>n should clamp: %d", len(got))
	}
	if got := s.Sample(5, 0); got != nil {
		t.Fatal("k=0 should be nil")
	}
}

func TestUniformSamplerUniformity(t *testing.T) {
	// Each index should be selected with probability k/n.
	s := NewUniformSampler(7)
	const n, k, reps = 20, 5, 8000
	counts := make([]int, n)
	for r := 0; r < reps; r++ {
		for _, i := range s.Sample(n, k) {
			counts[i]++
		}
	}
	want := float64(reps) * float64(k) / float64(n)
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.15 {
			t.Fatalf("index %d selected %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestSystematicSamplerSpread(t *testing.T) {
	s := NewSystematicSampler(3)
	idx := s.Sample(100, 10)
	if len(idx) != 10 {
		t.Fatalf("got %d indices", len(idx))
	}
	for i := 1; i < len(idx); i++ {
		gap := idx[i] - idx[i-1]
		if gap < 8 || gap > 12 {
			t.Fatalf("systematic gap %d not ~10", gap)
		}
	}
	if got := s.Sample(3, 5); len(got) != 3 {
		t.Fatal("clamp failed")
	}
	if got := s.Sample(10, 0); got != nil {
		t.Fatal("k=0 not nil")
	}
}

func TestStratifiedSamplerOnePerStratum(t *testing.T) {
	s := NewStratifiedSampler(1)
	for trial := 0; trial < 50; trial++ {
		idx := s.Sample(100, 10)
		if len(idx) != 10 {
			t.Fatalf("got %d indices", len(idx))
		}
		for i, v := range idx {
			if v < i*10 || v >= (i+1)*10 {
				t.Fatalf("index %d = %d outside stratum [%d,%d)", i, v, i*10, (i+1)*10)
			}
		}
	}
	if got := s.Sample(5, 8); len(got) != 5 {
		t.Fatal("k>n clamp failed")
	}
	if got := s.Sample(10, 0); got != nil {
		t.Fatal("k=0 not nil")
	}
	// Uneven strata still produce k distinct-stratum draws.
	idx := s.Sample(7, 3)
	if len(idx) != 3 || idx[0] >= idx[1]+3 {
		t.Fatalf("uneven strata sample = %v", idx)
	}
}

// For a smooth (autocorrelated) signal the stratified mean estimator has
// lower variance than the uniform one — the reason to prefer it on video.
func TestStratifiedBeatsUniformOnSmoothSignal(t *testing.T) {
	const n, k, reps = 1000, 20, 400
	signal := make([]float64, n)
	for i := range signal {
		signal[i] = float64(i) / n * 10 // strong trend = worst case for uniform
	}
	variance := func(s Sampler) float64 {
		var sum, sq float64
		for r := 0; r < reps; r++ {
			var m float64
			for _, idx := range s.Sample(n, k) {
				m += signal[idx]
			}
			m /= k
			sum += m
			sq += m * m
		}
		mean := sum / reps
		return sq/reps - mean*mean
	}
	vu := variance(NewUniformSampler(5))
	vs := variance(NewStratifiedSampler(5))
	if vs >= vu/2 {
		t.Fatalf("stratified variance %v not well below uniform %v", vs, vu)
	}
}

func TestReservoirUniform(t *testing.T) {
	// Offer 0..99 into a k=10 reservoir many times; each item should be
	// retained with probability 10/100.
	const n, k, reps = 100, 10, 5000
	counts := make([]int, n)
	for r := 0; r < reps; r++ {
		res := NewReservoir[int](k, uint64(r))
		for i := 0; i < n; i++ {
			res.Offer(i)
		}
		if res.Seen() != n || len(res.Items) != k {
			t.Fatalf("reservoir state wrong: seen=%d len=%d", res.Seen(), len(res.Items))
		}
		for _, it := range res.Items {
			counts[it]++
		}
	}
	want := float64(reps) * float64(k) / float64(n)
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.25 {
			t.Fatalf("item %d retained %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestReservoirUnderfill(t *testing.T) {
	res := NewReservoir[string](5, 1)
	res.Offer("a")
	res.Offer("b")
	if len(res.Items) != 2 {
		t.Fatalf("underfilled reservoir has %d items", len(res.Items))
	}
}

func TestSliceSource(t *testing.T) {
	frames := video.NewStream(video.Jackson(), 9).Take(5)
	src := &SliceSource{Frames: frames}
	if src.Remaining() != 5 {
		t.Fatal("Remaining wrong")
	}
	f, ok := src.Next()
	if !ok || f != frames[0] || src.Remaining() != 4 {
		t.Fatal("Next wrong")
	}
	wins, err := HoppingWindows(src, 2, 2, 2)
	if err != nil || len(wins) != 2 {
		t.Fatalf("windows over slice source failed: %v", err)
	}
	// Exhausted: every further Next reports EOF, never panics.
	for i := 0; i < 3; i++ {
		if f, ok := src.Next(); ok || f != nil {
			t.Fatalf("exhausted Next returned (%v, %v)", f, ok)
		}
	}
	if src.Remaining() != 0 {
		t.Fatalf("Remaining after exhaustion = %d", src.Remaining())
	}
}

func TestTakeStopsAtExhaustion(t *testing.T) {
	frames := video.NewStream(video.Jackson(), 10).Take(3)
	got := Take(&SliceSource{Frames: frames}, 10)
	if len(got) != 3 || got[0] != frames[0] || got[2] != frames[2] {
		t.Fatalf("Take over short source = %d frames", len(got))
	}
	if got := Take(FromStream(video.NewStream(video.Jackson(), 10)), 7); len(got) != 7 {
		t.Fatalf("Take over unbounded source = %d frames", len(got))
	}
	// A live source that reports Depth is read only while it holds
	// frames: Take returns what is buffered instead of waiting for more.
	push := NewPushSource(8, PushBlock)
	for _, f := range frames[:2] {
		if err := push.Publish(f, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := Take(push, 10); len(got) != 2 || got[1] != frames[1] {
		t.Fatalf("Take over a live source holding 2 frames = %d frames", len(got))
	}
}

func TestHoppingWindowsExhaustion(t *testing.T) {
	frames := video.NewStream(video.Jackson(), 11).Take(25)
	src := &SliceSource{Frames: frames}
	wins, err := HoppingWindows(src, 10, 10, 4)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("short source error = %v, want ErrExhausted", err)
	}
	if len(wins) != 2 {
		t.Fatalf("complete windows = %d, want 2", len(wins))
	}
	for i, w := range wins {
		if len(w.Frames) != 10 || w.Start != i*10 {
			t.Fatalf("window %d malformed: %d frames at %d", i, len(w.Frames), w.Start)
		}
	}
	// A source holding exactly n full windows succeeds: running dry in the
	// trailing gap is not an error once every window is complete.
	src2 := &SliceSource{Frames: frames[:20]}
	wins2, err := HoppingWindows(src2, 5, 15, 2)
	if err != nil || len(wins2) != 2 {
		t.Fatalf("exact-fit gapped windows: %v (%d wins)", err, len(wins2))
	}
	// On a longer source the trailing gap is consumed, so repeated calls
	// stay on the ADVANCE grid.
	src4 := FromStream(video.NewStream(video.Jackson(), 13))
	if _, err := HoppingWindows(src4, 5, 15, 2); err != nil {
		t.Fatal(err)
	}
	more, err := HoppingWindows(src4, 5, 15, 1)
	if err != nil || more[0].Frames[0].Index != 30 {
		t.Fatalf("second call off the hop grid: %v, first index %d", err, more[0].Frames[0].Index)
	}
	// Exhaustion inside the gap still reports the typed error.
	src3 := &SliceSource{Frames: frames[:12]}
	if _, err := HoppingWindows(src3, 5, 15, 2); !errors.Is(err, ErrExhausted) {
		t.Fatalf("gap exhaustion error = %v", err)
	}
}

func TestSlidingWindowsExhaustion(t *testing.T) {
	frames := video.NewStream(video.Jackson(), 12).Take(14)
	src := &SliceSource{Frames: frames}
	wins, err := SlidingWindows(src, 10, 2, 5)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("short source error = %v, want ErrExhausted", err)
	}
	if len(wins) != 3 {
		t.Fatalf("complete windows = %d, want 3 (starts 0,2,4)", len(wins))
	}
	for i, w := range wins {
		if w.Start != i*2 || len(w.Frames) != 10 {
			t.Fatalf("window %d malformed", i)
		}
	}
}
