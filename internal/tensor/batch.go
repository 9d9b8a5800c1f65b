package tensor

import (
	"fmt"
	"slices"
)

// Batched inference layout
//
// The batched kernels take activations in feature-major order: a batch of
// N CHW frames is stored as C×N×H×W, so channel c of frame n is the
// contiguous plane at (c·N+n)·H·W. In that layout every layer of the
// branch networks is a single pass with no transposes between layers:
// Im2ColBatchInto emits columns grouped per frame, the convolution GEMM's
// output (outC × N·OH·OW) is already the next layer's feature-major input,
// and pooling and GAP reduce contiguous planes. nn.ForwardBatch runs them
// on one-frame tiles (N = 1), where C×1×H×W is byte-for-byte the CHW
// frame, so no conversion is needed at either end.

// setShape gives t the shape dims, keeping t.Shape when it already
// matches so the *Into kernels do not allocate on reused scratch tensors.
// A differing shape gets a fresh slice: t.Shape may be shared.
func setShape(t *Tensor, dims ...int) {
	if !slices.Equal(t.Shape, dims) {
		t.Shape = append([]int(nil), dims...)
	}
}

// Im2ColInto unrolls input (C×H×W) into dst of shape (C·KH·KW)×(OH·OW)
// like Im2Col, but writes into the caller's scratch tensor instead of
// allocating. Out-of-bounds taps are written as explicit zeros, so a dirty
// reused buffer is safe. A nil dst allocates. It returns dst.
func Im2ColInto(dst, in *Tensor, p ConvParams) *Tensor {
	p.validate()
	if in.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Im2ColInto needs CHW input, got %v", in.Shape))
	}
	c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
	return im2colPlanes(dst, in.Data, c, 1, h, w, p)
}

// Im2ColBatchInto unrolls a feature-major batch (C×N×H×W) into dst of
// shape (C·KH·KW)×(N·OH·OW): column n·OH·OW+s is frame n's patch s, so a
// single GEMM with the (outC)×(C·KH·KW) weight matrix convolves the whole
// batch and its output is the next layer's feature-major input. Taps are
// written unconditionally (zeros for padding), so dst may be a dirty
// scratch buffer. A nil dst allocates. It returns dst.
func Im2ColBatchInto(dst, in *Tensor, p ConvParams) *Tensor {
	p.validate()
	if in.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Im2ColBatchInto needs C×N×H×W input, got %v", in.Shape))
	}
	c, n, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	return im2colPlanes(dst, in.Data, c, n, h, w, p)
}

// im2colPlanes is the shared unroll over c channels of n frames: input
// plane (c,f) lives at (c·n+f)·h·w, output column f·oh·ow+s.
func im2colPlanes(dst *Tensor, data []float32, c, n, h, w int, p ConvParams) *Tensor {
	oh, ow := p.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv output %dx%d non-positive for %dx%d input %+v", oh, ow, h, w, p))
	}
	rows, cols := c*p.KH*p.KW, n*oh*ow
	if dst == nil {
		dst = New(rows, cols)
	} else {
		if dst.Len() != rows*cols {
			panic(fmt.Sprintf("tensor: im2col dst length %d, want %d", dst.Len(), rows*cols))
		}
		setShape(dst, rows, cols)
	}
	same := p.Stride == 1 && ow == w
	row := 0
	for ci := 0; ci < c; ci++ {
		for ky := 0; ky < p.KH; ky++ {
			for kx := 0; kx < p.KW; kx++ {
				off := kx - p.Padding
				if same {
					for f := 0; f < n; f++ {
						im2colShift(dst.Data[row*cols+f*oh*ow:row*cols+(f+1)*oh*ow],
							data[(ci*n+f)*h*w:(ci*n+f+1)*h*w], h, w, oh, ky-p.Padding, off)
					}
					row++
					continue
				}
				// Precompute the ox range whose input column is in bounds:
				// 0 <= ox*stride + kx - padding < w. Outside it the tap is
				// padding; inside, stride 1 is a straight copy.
				ox0 := 0
				if off < 0 {
					ox0 = (-off + p.Stride - 1) / p.Stride
				}
				ox1 := floorDiv(w-1-off, p.Stride)
				if ox1 >= ow {
					ox1 = ow - 1
				}
				for f := 0; f < n; f++ {
					chn := data[(ci*n+f)*h*w : (ci*n+f+1)*h*w]
					orow := dst.Data[row*cols+f*oh*ow : row*cols+(f+1)*oh*ow]
					for oy := 0; oy < oh; oy++ {
						iy := oy*p.Stride + ky - p.Padding
						seg := orow[oy*ow : (oy+1)*ow]
						if iy < 0 || iy >= h || ox1 < ox0 {
							for x := range seg {
								seg[x] = 0
							}
							continue
						}
						base := iy * w
						for x := 0; x < ox0; x++ {
							seg[x] = 0
						}
						if p.Stride == 1 {
							copy(seg[ox0:ox1+1], chn[base+ox0+off:base+ox1+off+1])
						} else {
							for ox := ox0; ox <= ox1; ox++ {
								seg[ox] = chn[base+ox*p.Stride+off]
							}
						}
						for x := ox1 + 1; x < ow; x++ {
							seg[x] = 0
						}
					}
				}
				row++
			}
		}
	}
	return dst
}

// im2colShift unrolls one tap of a stride-1 convolution whose output rows
// are as wide as its input rows (same padding): out[oy·w+ox] =
// in[(oy+dy)·w + ox+dx], zero where that lies outside the h×w plane.
// Because the rows line up, every in-range output row is the input
// shifted by one constant offset, so the tap is a single copy of the
// in-range rows, zeros for the rows above and below, and a zeroing of the
// |dx| columns per row that the shift wrapped in from the neighbouring
// row.
func im2colShift(out, in []float32, h, w, oh, dy, dx int) {
	oy0, oy1 := max(0, -dy), min(oh, h-dy) // in-range output rows [oy0, oy1)
	if oy0 >= oy1 {
		clear(out)
		return
	}
	clear(out[:oy0*w])
	clear(out[oy1*w:])
	start, end := oy0*w+max(0, -dx), oy1*w-max(0, dx)
	if start < end {
		shift := dy*w + dx
		copy(out[start:end], in[start+shift:end+shift])
	}
	edge := min(w, max(dx, -dx))
	if edge == 0 {
		return
	}
	for oy := oy0; oy < oy1; oy++ {
		r := out[oy*w : (oy+1)*w]
		if dx < 0 {
			clear(r[:edge])
		} else {
			clear(r[w-edge:])
		}
	}
}

// MaxPool2DBatchInto applies non-overlapping k×k max pooling to a
// feature-major batch (C×N×H×W), writing C×N×(H/k)×(W/k) into dst. No
// argmax indices are produced — this is the inference path. A nil dst
// allocates. It returns dst.
func MaxPool2DBatchInto(dst, in *Tensor, k int) *Tensor {
	if k <= 0 {
		panic("tensor: MaxPool2DBatchInto k must be positive")
	}
	if in.Rank() != 4 {
		panic(fmt.Sprintf("tensor: MaxPool2DBatchInto needs C×N×H×W input, got %v", in.Shape))
	}
	c, n, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	oh, ow := h/k, w/k
	if oh == 0 || ow == 0 {
		panic(fmt.Sprintf("tensor: MaxPool2DBatchInto k=%d too large for %v", k, in.Shape))
	}
	if dst == nil {
		dst = New(c, n, oh, ow)
	} else {
		if dst.Len() != c*n*oh*ow {
			panic(fmt.Sprintf("tensor: MaxPool2DBatchInto dst length %d, want %d", dst.Len(), c*n*oh*ow))
		}
		setShape(dst, c, n, oh, ow)
	}
	for pl := 0; pl < c*n; pl++ {
		chn := in.Data[pl*h*w : (pl+1)*h*w]
		out := dst.Data[pl*oh*ow : (pl+1)*oh*ow]
		if k == 2 {
			// The backbones pool exclusively with k=2; compare two rows
			// pairwise without the per-window index arithmetic, through
			// the dispatched row kernel (AVX2 where available).
			for oy := 0; oy < oh; oy++ {
				r0 := chn[(2*oy)*w:][: 2*ow : 2*ow]
				r1 := chn[(2*oy+1)*w:][: 2*ow : 2*ow]
				maxPool2Row(out[oy*ow:][:ow:ow], r0, r1)
			}
			continue
		}
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(-1e30)
				for ky := 0; ky < k; ky++ {
					rowBase := (oy*k + ky) * w
					for kx := 0; kx < k; kx++ {
						if v := chn[rowBase+ox*k+kx]; v > best {
							best = v
						}
					}
				}
				out[oy*ow+ox] = best
			}
		}
	}
	return dst
}

// GlobalAvgPoolBatchInto reduces a feature-major batch (C×N×H×W) to the
// C×N matrix of per-plane means, summing each plane in the same order as
// GlobalAvgPool so per-frame results match the single-frame path exactly.
// A nil dst allocates. It returns dst.
func GlobalAvgPoolBatchInto(dst, in *Tensor) *Tensor {
	if in.Rank() != 4 {
		panic(fmt.Sprintf("tensor: GlobalAvgPoolBatchInto needs C×N×H×W input, got %v", in.Shape))
	}
	c, n, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	if dst == nil {
		dst = New(c, n)
	} else {
		if dst.Len() != c*n {
			panic(fmt.Sprintf("tensor: GlobalAvgPoolBatchInto dst length %d, want %d", dst.Len(), c*n))
		}
		setShape(dst, c, n)
	}
	area := float32(h * w)
	for pl := 0; pl < c*n; pl++ {
		var s float32
		for _, v := range in.Data[pl*h*w : (pl+1)*h*w] {
			s += v
		}
		// Divide (not multiply by a reciprocal) so per-frame values are
		// bit-identical to GlobalAvgPool's.
		dst.Data[pl] = s / area
	}
	return dst
}
