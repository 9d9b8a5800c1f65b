package tensor

import (
	"math/rand/v2"
	"testing"
)

func benchTensors(m, k, n int) (*Tensor, *Tensor) {
	rng := rand.New(rand.NewPCG(1, 1))
	a := New(m, k)
	b := New(k, n)
	a.RandN(rng, 1)
	b.RandN(rng, 1)
	return a, b
}

func BenchmarkMatMul64(b *testing.B) {
	x, y := benchTensors(64, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

// BenchmarkMatMulBlocked measures the cache-blocked GEMM on the batched
// conv-layer shape (16 filters over a 32-frame batch of 48x48 planes).
func BenchmarkMatMulBlocked(b *testing.B) {
	x, y := benchTensors(16, 144, 32*48*48)
	dst := New(16, 32*48*48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

// BenchmarkMatMulNaiveLarge is the naive reference on the same shape.
func BenchmarkMatMulNaiveLarge(b *testing.B) {
	x, y := benchTensors(16, 144, 32*48*48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMulT2(b *testing.B) {
	x, _ := benchTensors(64, 64, 64)
	y, _ := benchTensors(64, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulT2(x, y)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	in := New(16, 48, 48)
	in.RandN(rng, 1)
	p := ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(in, p)
	}
}

// BenchmarkConv2D measures the trained-backend conv workload: 16 filters
// of 3x3 over a 16x48x48 feature map.
func BenchmarkConv2D(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 3))
	in := New(16, 48, 48)
	in.RandN(rng, 1)
	w := New(16, 16, 3, 3)
	w.RandN(rng, 0.1)
	bias := New(16)
	p := ConvParams{KH: 3, KW: 3, Stride: 1, Padding: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2D(in, w, bias, p)
	}
}

func BenchmarkMaxPool(b *testing.B) {
	rng := rand.New(rand.NewPCG(4, 4))
	in := New(16, 48, 48)
	in.RandN(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxPool2D(in, 2)
	}
}

func BenchmarkGlobalAvgPool(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	in := New(256, 56, 56)
	in.RandN(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GlobalAvgPool(in)
	}
}
