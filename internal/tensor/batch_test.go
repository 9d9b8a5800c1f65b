package tensor

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// The blocked GEMM must agree with the naive reference loop. Tolerance is
// zero: both kernels accumulate each output element in ascending-k order,
// and skipping zero terms is exact in IEEE arithmetic, so the results are
// bit-identical, which is what keeps the batched inference path
// result-identical to the sequential reference at the engine level.
func TestMatMulIntoMatchesNaive(t *testing.T) {
	ensureBitExact(t)
	rng := rand.New(rand.NewPCG(11, 0))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.IntN(70)
		k := 1 + rng.IntN(300)
		n := 1 + rng.IntN(400)
		a, b := New(m, k), New(k, n)
		a.RandN(rng, 1)
		b.RandN(rng, 1)
		// Inject sparsity so the zero-skip paths are exercised.
		for i := range a.Data {
			if rng.Float64() < 0.3 {
				a.Data[i] = 0
			}
		}
		want := MatMul(a, b)
		got := MatMulInto(nil, a, b)
		requireBitEqual(t, "MatMulInto", got, want)
		// Reused dirty dst.
		dirty := New(m, n)
		dirty.Fill(999)
		requireBitEqual(t, "MatMulInto reuse", MatMulInto(dirty, a, b), want)
	}
}

func requireBitEqual(t *testing.T, label string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %g, want %g", label, i, got.Data[i], want.Data[i])
		}
	}
}

// Property test for the whole batched convolution lowering: for random
// batch sizes, channel counts, spatial sizes, kernels, strides and
// paddings, Im2ColBatchInto + the blocked GEMM must match the direct
// Conv2DNaive reference on every frame of the batch.
func TestBatchedConvMatchesNaivePerFrame(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 0))
	for trial := 0; trial < 30; trial++ {
		batch := 1 + rng.IntN(7)
		c := 1 + rng.IntN(4)
		outC := 1 + rng.IntN(6)
		kk := 1 + rng.IntN(3)
		stride := 1 + rng.IntN(2)
		pad := rng.IntN(kk) // padding < kernel keeps the output non-empty
		h := kk + rng.IntN(14)
		w := kk + rng.IntN(14)
		p := ConvParams{KH: kk, KW: kk, Stride: stride, Padding: pad}
		oh, ow := p.OutSize(h, w)
		if oh <= 0 || ow <= 0 {
			continue
		}

		frames := make([]*Tensor, batch)
		fm := New(c, batch, h, w) // feature-major batch
		for f := 0; f < batch; f++ {
			frames[f] = New(c, h, w)
			frames[f].RandN(rng, 1)
			for ci := 0; ci < c; ci++ {
				copy(fm.Data[(ci*batch+f)*h*w:(ci*batch+f+1)*h*w],
					frames[f].Data[ci*h*w:(ci+1)*h*w])
			}
		}
		weights := New(outC, c, kk, kk)
		weights.RandN(rng, 0.5)
		bias := New(outC)
		bias.RandN(rng, 0.5)

		// Batched path: im2col into a dirty scratch, one GEMM.
		cols := New(c*kk*kk, batch*oh*ow)
		cols.Fill(7)
		Im2ColBatchInto(cols, fm, p)
		out := MatMulInto(nil, weights.Reshape(outC, c*kk*kk), cols)
		for o := 0; o < outC; o++ {
			row := out.Data[o*batch*oh*ow : (o+1)*batch*oh*ow]
			for i := range row {
				row[i] += bias.Data[o]
			}
		}

		for f := 0; f < batch; f++ {
			want := Conv2DNaive(frames[f], weights, bias, p)
			for o := 0; o < outC; o++ {
				for s := 0; s < oh*ow; s++ {
					got := out.Data[(o*batch+f)*oh*ow+s]
					if math.Abs(float64(got-want.Data[o*oh*ow+s])) > 1e-4 {
						t.Fatalf("trial %d (B=%d c=%d outC=%d k=%d s=%d p=%d %dx%d): frame %d out[%d,%d] = %g, want %g",
							trial, batch, c, outC, kk, stride, pad, h, w, f, o, s, got, want.Data[o*oh*ow+s])
					}
				}
			}
		}

		// The scratch-buffer single-frame unroll must equal the allocating
		// reference exactly.
		dirty := New(c*kk*kk, oh*ow)
		dirty.Fill(3)
		requireBitEqual(t, "Im2ColInto", Im2ColInto(dirty, frames[0], p), Im2Col(frames[0], p))
	}
}

// Batched pooling and GAP must match their single-frame references
// bit-for-bit on every frame.
func TestBatchedPoolingMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 0))
	for trial := 0; trial < 20; trial++ {
		batch := 1 + rng.IntN(6)
		c := 1 + rng.IntN(5)
		k := 1 + rng.IntN(3)
		h := k * (1 + rng.IntN(8))
		w := k * (1 + rng.IntN(8))
		fm := New(c, batch, h, w)
		fm.RandN(rng, 1)
		frame := func(f int) *Tensor {
			out := New(c, h, w)
			for ci := 0; ci < c; ci++ {
				copy(out.Data[ci*h*w:(ci+1)*h*w], fm.Data[(ci*batch+f)*h*w:(ci*batch+f+1)*h*w])
			}
			return out
		}

		pooled := MaxPool2DBatchInto(nil, fm, k)
		gap := GlobalAvgPoolBatchInto(nil, fm)
		oh, ow := h/k, w/k
		for f := 0; f < batch; f++ {
			single, _ := MaxPool2D(frame(f), k)
			for ci := 0; ci < c; ci++ {
				for s := 0; s < oh*ow; s++ {
					if pooled.Data[(ci*batch+f)*oh*ow+s] != single.Data[ci*oh*ow+s] {
						t.Fatalf("maxpool frame %d ch %d pos %d diverged", f, ci, s)
					}
				}
			}
			g := GlobalAvgPool(frame(f))
			for ci := 0; ci < c; ci++ {
				if gap.Data[ci*batch+f] != g.Data[ci] {
					t.Fatalf("gap frame %d ch %d: %g vs %g", f, ci, gap.Data[ci*batch+f], g.Data[ci])
				}
			}
		}
	}
}

// Im2ColBatchInto must reproduce the per-frame Im2Col unroll exactly for
// every frame of a feature-major batch, over random kernels, strides,
// paddings and sizes — including the stride-1 same-padding shift path and
// kernels wider than the input that padding rescues.
func TestIm2ColBatchMatchesPerFrame(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 0))
	for trial := 0; trial < 400; trial++ {
		kh, kw := 1+rng.IntN(5), 1+rng.IntN(5)
		p := ConvParams{KH: kh, KW: kw, Stride: 1 + rng.IntN(3), Padding: rng.IntN(4)}
		if trial%3 == 0 { // same padding: odd kernel, stride 1, ow == w
			kw = 1 + 2*rng.IntN(3)
			p = ConvParams{KH: kh, KW: kw, Stride: 1, Padding: kw / 2}
		}
		c, n := 1+rng.IntN(3), 1+rng.IntN(4)
		h, w := 1+rng.IntN(9), 1+rng.IntN(9)
		oh, ow := p.OutSize(h, w)
		if oh <= 0 || ow <= 0 {
			continue
		}
		fm := New(c, n, h, w)
		fm.RandN(rng, 1)
		cols := New(c*kh*kw, n*oh*ow)
		cols.Fill(7) // dirty scratch
		Im2ColBatchInto(cols, fm, p)
		for f := 0; f < n; f++ {
			frame := New(c, h, w)
			for ci := 0; ci < c; ci++ {
				copy(frame.Data[ci*h*w:(ci+1)*h*w], fm.Data[(ci*n+f)*h*w:(ci*n+f+1)*h*w])
			}
			want := Im2Col(frame, p)
			for r := 0; r < c*kh*kw; r++ {
				for s := 0; s < oh*ow; s++ {
					got := cols.Data[r*n*oh*ow+f*oh*ow+s]
					if math.Float32bits(got) != math.Float32bits(want.Data[r*oh*ow+s]) {
						t.Fatalf("trial %d %+v c=%d n=%d %dx%d: frame %d row %d col %d = %g, want %g",
							trial, p, c, n, h, w, f, r, s, got, want.Data[r*oh*ow+s])
					}
				}
			}
		}
	}
}

// A kernel wider than its padded input by less than the stride has no
// output. OutSize must say so, and both unroll paths must reject the
// geometry with the typed non-positive-output panic rather than produce a
// one-pixel output (per frame) or index out of range (batched).
func TestConvOutSizeRejectsKernelWiderThanInput(t *testing.T) {
	p := ConvParams{KH: 2, KW: 2, Stride: 2}
	if oh, ow := p.OutSize(1, 1); oh > 0 || ow > 0 {
		t.Fatalf("2x2 stride-2 on 1x1: OutSize = %dx%d, want non-positive", oh, ow)
	}
	mustPanicWith := func(name string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, "non-positive") {
				t.Errorf("%s: panic %v, want the non-positive output panic", name, r)
			}
		}()
		f()
	}
	mustPanicWith("Im2Col", func() { Im2Col(New(1, 1, 1), p) })
	mustPanicWith("Im2ColBatchInto", func() { Im2ColBatchInto(nil, New(1, 3, 1, 1), p) })
}
