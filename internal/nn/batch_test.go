package nn

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"vmq/internal/tensor"
)

// randomFrames builds a batch-major NCHW tensor and the per-frame CHW
// views of the same data.
func randomFrames(rng *rand.Rand, n, c, img int) (*tensor.Tensor, []*tensor.Tensor) {
	batch := tensor.New(n, c, img, img)
	batch.RandN(rng, 1)
	frames := make([]*tensor.Tensor, n)
	for f := 0; f < n; f++ {
		frames[f] = tensor.FromSlice(batch.Data[f*c*img*img:(f+1)*c*img*img], c, img, img)
	}
	return batch, frames
}

// ForwardBatch must be bit-identical per frame to the per-frame Forward
// path: both accumulate every output element in ascending-k order, so no
// tolerance is needed. This is the property that keeps batched engine
// execution result-identical to the sequential reference.
func TestCountLocNetForwardBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 0))
	for _, tc := range []struct {
		name string
		od   bool
		n    int
	}{
		{"ic-b1", false, 1},
		{"ic-b5", false, 5},
		{"od-b7", true, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const img, d, classes = 32, 16, 3
			var backbone *Sequential
			if tc.od {
				backbone = ODBackbone(rng, 3, img, d)
			} else {
				backbone = ICBackbone(rng, 3, img, d)
			}
			net := NewCountLocNet(rng, backbone, d, img/4, classes)
			batch, frames := randomFrames(rng, tc.n, 3, img)

			ar := &Arena{}
			ar.Reset()
			counts, maps := net.ForwardBatch(ar, batch)
			if counts.Shape[0] != tc.n || counts.Shape[1] != classes {
				t.Fatalf("counts shape %v", counts.Shape)
			}
			g := img / 4
			if maps.Shape[0] != tc.n || maps.Shape[1] != classes || maps.Shape[2] != g {
				t.Fatalf("maps shape %v", maps.Shape)
			}
			for f := 0; f < tc.n; f++ {
				wc, wm := net.Forward(frames[f])
				for ci := 0; ci < classes; ci++ {
					if got := counts.Data[f*classes+ci]; got != wc.Data[ci] {
						t.Fatalf("frame %d class %d count = %g, want %g", f, ci, got, wc.Data[ci])
					}
				}
				for i := 0; i < classes*g*g; i++ {
					if got := maps.Data[f*classes*g*g+i]; got != wm.Data[i] {
						t.Fatalf("frame %d map elem %d = %g, want %g", f, i, got, wm.Data[i])
					}
				}
			}

			// A second pass over the same arena (dirty buffers) must agree.
			ar.Reset()
			counts2, _ := net.ForwardBatch(ar, batch)
			for i := range counts.Data {
				if counts2.Data[i] != counts.Data[i] {
					t.Fatalf("arena reuse changed counts at %d", i)
				}
			}
		})
	}
}

func TestCountOnlyNetForwardBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 0))
	const img = 32
	net := NewCountOnlyNet(rng, 3, img)
	batch, frames := randomFrames(rng, 6, 3, img)
	ar := &Arena{}
	ar.Reset()
	out := net.ForwardBatch(ar, batch)
	if out.Len() != 6 {
		t.Fatalf("batch output length %d", out.Len())
	}
	for f, frame := range frames {
		want := net.Forward(frame)
		if got := float64(out.Data[f]); got != want {
			t.Fatalf("frame %d total = %g, want %g", f, got, want)
		}
	}
}

// Sequential.ForwardBatch handles a conv stack ending in GAP + Linear (the
// COF topology) and plain conv outputs alike, and a Linear directly after
// a spatial layer flattens frames in the same order Forward does.
func TestSequentialForwardBatchFlatten(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 0))
	const img = 8
	seq := &Sequential{Layers: []Layer{
		NewConv2D(rng, 2, 4, 3, 1, 1),
		&ReLU{},
		NewLinear(rng, 4*img*img, 5),
	}}
	batch, frames := randomFrames(rng, 3, 2, img)
	ar := &Arena{}
	ar.Reset()
	out := seq.ForwardBatch(ar, batch)
	if out.Shape[0] != 3 || out.Shape[1] != 5 {
		t.Fatalf("output shape %v", out.Shape)
	}
	for f, frame := range frames {
		want := seq.Forward(frame)
		for o := 0; o < 5; o++ {
			if got := out.Data[f*5+o]; got != want.Data[o] {
				t.Fatalf("frame %d out %d = %g, want %g", f, o, got, want.Data[o])
			}
		}
	}
}

// The batched pass must not allocate per frame: a 32-frame ForwardBatch on
// a warmed arena performs at least 5x fewer allocations than 32 per-frame
// Forwards (the acceptance bar; in practice it is closer to 100x).
func TestForwardBatchAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 0))
	const img, d, classes, b = 32, 16, 2, 32
	net := NewCountLocNet(rng, ICBackbone(rng, 3, img, d), d, img/4, classes)
	batch, frames := randomFrames(rng, b, 3, img)
	ar := &Arena{}
	ar.Reset()
	net.ForwardBatch(ar, batch) // warm the arena
	batched := testing.AllocsPerRun(3, func() {
		ar.Reset()
		net.ForwardBatch(ar, batch)
	})
	perFrame := testing.AllocsPerRun(3, func() {
		for _, f := range frames {
			net.Forward(f)
		}
	})
	if batched*5 > perFrame {
		t.Fatalf("batched pass allocates %.0f for %d frames vs %.0f per-frame — want >=5x fewer", batched, b, perFrame)
	}
}

// A pinned arena worker budget must never change output bytes — workers
// claim whole frames, and each frame's accumulation order is fixed —
// and ForwardFlops must track the architecture monotonically (it is the
// broker's fan-out threshold).
func TestArenaWorkersBitIdenticalAndForwardFlops(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 0))
	const img, d, classes = 32, 16, 3
	net := NewCountLocNet(rng, ODBackbone(rng, 3, img, d), d, img/4, classes)
	batch, _ := randomFrames(rng, 6, 3, img)

	ref := &Arena{}
	wantCounts, wantMaps := net.ForwardBatch(ref, batch)
	for _, workers := range []int{1, 2, 3, 7} {
		ar := &Arena{Workers: workers}
		counts, maps := net.ForwardBatch(ar, batch)
		for i := range wantCounts.Data {
			if math.Float32bits(counts.Data[i]) != math.Float32bits(wantCounts.Data[i]) {
				t.Fatalf("workers=%d: counts[%d] = %v, want %v", workers, i, counts.Data[i], wantCounts.Data[i])
			}
		}
		for i := range wantMaps.Data {
			if math.Float32bits(maps.Data[i]) != math.Float32bits(wantMaps.Data[i]) {
				t.Fatalf("workers=%d: maps[%d] = %v, want %v", workers, i, maps.Data[i], wantMaps.Data[i])
			}
		}
	}

	fl := net.ForwardFlops(3, img, img)
	if fl <= 0 {
		t.Fatalf("ForwardFlops = %d, want positive", fl)
	}
	// A deeper/wider net must cost more.
	big := NewCountLocNet(rng, ODBackbone(rng, 3, img, 2*d), 2*d, img/4, classes)
	if bfl := big.ForwardFlops(3, img, img); bfl <= fl {
		t.Fatalf("wider backbone ForwardFlops %d not > %d", bfl, fl)
	}
	cof := NewCountOnlyNet(rng, 3, img)
	if cfl := cof.ForwardFlops(3, img, img); cfl <= 0 {
		t.Fatalf("CountOnlyNet.ForwardFlops = %d, want positive", cfl)
	}
}

// Frame tiles must not change a single output bit: for every batch size
// and worker count, CountLocNet, CountOnlyNet and a flattening Sequential
// reproduce per-frame Forward exactly. One arena per network is reused
// across growing and shrinking batch widths and worker counts, so stale
// child arenas and regrown outputs are exercised too.
func TestForwardBatchTilesMatchForward(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 0))
	const img, d, classes = 16, 8, 3
	sizes := []int{1, 2, 5, 28, 33, 5, 1}
	workers := []int{0, 1, 2, 3, 8}
	batch, frames := randomFrames(rng, 33, 3, img)
	prefix := func(nb int) *tensor.Tensor {
		return tensor.FromSlice(batch.Data[:nb*3*img*img], nb, 3, img, img)
	}
	bits := math.Float32bits

	t.Run("CountLocNet", func(t *testing.T) {
		net := NewCountLocNet(rng, ODBackbone(rng, 3, img, d), d, img/4, classes)
		wantC := make([][]float32, len(frames))
		wantM := make([][]float32, len(frames))
		for f, fr := range frames {
			c, m := net.Forward(fr)
			wantC[f], wantM[f] = c.Data, m.Data
		}
		ar := &Arena{}
		for _, nb := range sizes {
			for _, w := range workers {
				ar.Workers = w
				ar.Reset()
				counts, maps := net.ForwardBatch(ar, prefix(nb))
				if counts.Shape[0] != nb || maps.Shape[0] != nb {
					t.Fatalf("nb=%d workers=%d: shapes %v %v", nb, w, counts.Shape, maps.Shape)
				}
				for f := 0; f < nb; f++ {
					for i, v := range wantC[f] {
						if got := counts.Data[f*classes+i]; bits(got) != bits(v) {
							t.Fatalf("nb=%d workers=%d frame %d count %d = %g, want %g", nb, w, f, i, got, v)
						}
					}
					for i, v := range wantM[f] {
						if got := maps.Data[f*len(wantM[f])+i]; bits(got) != bits(v) {
							t.Fatalf("nb=%d workers=%d frame %d map %d = %g, want %g", nb, w, f, i, got, v)
						}
					}
				}
			}
		}
	})

	t.Run("CountOnlyNet", func(t *testing.T) {
		net := NewCountOnlyNet(rng, 3, img)
		want := make([]float64, len(frames))
		for f, fr := range frames {
			want[f] = net.Forward(fr)
		}
		ar := &Arena{}
		for _, nb := range sizes {
			for _, w := range workers {
				ar.Workers = w
				ar.Reset()
				out := net.ForwardBatch(ar, prefix(nb))
				if out.Rank() != 1 || out.Shape[0] != nb {
					t.Fatalf("nb=%d workers=%d: shape %v", nb, w, out.Shape)
				}
				for f := 0; f < nb; f++ {
					if got := float64(out.Data[f]); got != want[f] {
						t.Fatalf("nb=%d workers=%d frame %d total = %g, want %g", nb, w, f, got, want[f])
					}
				}
			}
		}
	})

	t.Run("SequentialFlatten", func(t *testing.T) {
		seq := &Sequential{Layers: []Layer{
			NewConv2D(rng, 3, 4, 3, 1, 1),
			NewLeakyReLU(0.1),
			&MaxPool{K: 2},
			NewLinear(rng, 4*(img/2)*(img/2), 5),
			&ReLU{},
		}}
		want := make([]*tensor.Tensor, len(frames))
		for f, fr := range frames {
			want[f] = seq.Forward(fr)
		}
		ar := &Arena{}
		for _, nb := range sizes {
			for _, w := range workers {
				ar.Workers = w
				ar.Reset()
				out := seq.ForwardBatch(ar, prefix(nb))
				if out.Rank() != 2 || out.Shape[0] != nb || out.Shape[1] != 5 {
					t.Fatalf("nb=%d workers=%d: shape %v", nb, w, out.Shape)
				}
				for f := 0; f < nb; f++ {
					for o, v := range want[f].Data {
						if got := out.Data[f*5+o]; bits(got) != bits(v) {
							t.Fatalf("nb=%d workers=%d frame %d out %d = %g, want %g", nb, w, f, o, got, v)
						}
					}
				}
			}
		}
	})
}

// A warmed single-worker ForwardBatch allocates nothing, and fanning out
// costs a fixed number of allocations per worker — never per frame.
func TestForwardBatchTileAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(36, 0))
	const img, d, classes = 16, 8, 2
	net := NewCountLocNet(rng, ODBackbone(rng, 3, img, d), d, img/4, classes)
	batch, _ := randomFrames(rng, 64, 3, img)
	allocs := func(workers, nb int) float64 {
		ar := &Arena{Workers: workers}
		in := tensor.FromSlice(batch.Data[:nb*3*img*img], nb, 3, img, img)
		net.ForwardBatch(ar, in) // warm the arenas
		return testing.AllocsPerRun(5, func() {
			ar.Reset()
			net.ForwardBatch(ar, in)
		})
	}
	for _, nb := range []int{1, 8, 64} {
		if a := allocs(1, nb); a != 0 {
			t.Errorf("Workers=1 batch=%d: %.0f allocations per warmed pass, want 0", nb, a)
		}
	}
	const perWorker = 4
	for _, w := range []int{2, 4} {
		for _, nb := range []int{w, 64} {
			if a := allocs(w, nb); a > perWorker*float64(w) {
				t.Errorf("Workers=%d batch=%d: %.0f allocations per warmed pass, want <= %d", w, nb, a, perWorker*w)
			}
		}
	}
}

// unbatchable is a layer ForwardBatch has no path for.
type unbatchable struct{ ReLU }

// A tile that panics on a worker goroutine must surface as a panic on the
// caller's goroutine — where the coalescing broker's isolation can
// recover it — after every worker has stopped, not crash the process.
func TestForwardBatchTilePanicReachesCaller(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 0))
	seq := &Sequential{Layers: []Layer{NewConv2D(rng, 3, 2, 3, 1, 1), &unbatchable{}}}
	batch, _ := randomFrames(rng, 6, 3, 8)
	for _, w := range []int{1, 3} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "no batched path") {
					t.Errorf("Workers=%d: recovered %q, want the no-batched-path panic", w, msg)
				}
			}()
			seq.ForwardBatch(&Arena{Workers: w}, batch)
		}()
	}
}
