package tensor

import "fmt"

// ConvParams describes a 2-D convolution (square kernel, symmetric stride
// and padding), matching the branch-network layer tables in the paper.
type ConvParams struct {
	KH, KW  int // kernel height and width
	Stride  int
	Padding int
}

// OutSize returns the output spatial size for an input of h×w. A kernel
// wider than the padded input yields a non-positive size (the division
// floors, so a deficit smaller than the stride does not round up to a
// one-pixel output), which the unrolling kernels reject.
func (p ConvParams) OutSize(h, w int) (oh, ow int) {
	return floorDiv(h+2*p.Padding-p.KH, p.Stride) + 1, floorDiv(w+2*p.Padding-p.KW, p.Stride) + 1
}

// floorDiv is a/b rounded toward negative infinity (b > 0).
func floorDiv(a, b int) int {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

func (p ConvParams) validate() {
	if p.KH <= 0 || p.KW <= 0 || p.Stride <= 0 || p.Padding < 0 {
		panic(fmt.Sprintf("tensor: invalid conv params %+v", p))
	}
}

// Im2Col unrolls input (C×H×W) into a matrix of shape
// (C*KH*KW) × (OH*OW) so that convolution becomes a single MatMul with the
// (outC)×(C*KH*KW) weight matrix. Out-of-bounds taps read as zero padding.
func Im2Col(in *Tensor, p ConvParams) *Tensor {
	p.validate()
	if in.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Im2Col needs CHW input, got %v", in.Shape))
	}
	c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
	oh, ow := p.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv output %dx%d non-positive for input %v params %+v", oh, ow, in.Shape, p))
	}
	out := New(c*p.KH*p.KW, oh*ow)
	row := 0
	for ci := 0; ci < c; ci++ {
		chn := in.Data[ci*h*w : (ci+1)*h*w]
		for ky := 0; ky < p.KH; ky++ {
			for kx := 0; kx < p.KW; kx++ {
				orow := out.Data[row*oh*ow : (row+1)*oh*ow]
				for oy := 0; oy < oh; oy++ {
					iy := oy*p.Stride + ky - p.Padding
					if iy < 0 || iy >= h {
						continue // zero padding
					}
					base := iy * w
					for ox := 0; ox < ow; ox++ {
						ix := ox*p.Stride + kx - p.Padding
						if ix < 0 || ix >= w {
							continue
						}
						orow[oy*ow+ox] = chn[base+ix]
					}
				}
				row++
			}
		}
	}
	return out
}

// Col2Im is the adjoint of Im2Col: it scatters a (C*KH*KW)×(OH*OW) matrix
// of gradients back onto a C×H×W input-gradient tensor, accumulating where
// kernel windows overlap.
func Col2Im(cols *Tensor, c, h, w int, p ConvParams) *Tensor {
	p.validate()
	oh, ow := p.OutSize(h, w)
	if cols.Shape[0] != c*p.KH*p.KW || cols.Shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Col2Im shape %v incompatible with c=%d h=%d w=%d %+v", cols.Shape, c, h, w, p))
	}
	out := New(c, h, w)
	row := 0
	for ci := 0; ci < c; ci++ {
		chn := out.Data[ci*h*w : (ci+1)*h*w]
		for ky := 0; ky < p.KH; ky++ {
			for kx := 0; kx < p.KW; kx++ {
				crow := cols.Data[row*oh*ow : (row+1)*oh*ow]
				for oy := 0; oy < oh; oy++ {
					iy := oy*p.Stride + ky - p.Padding
					if iy < 0 || iy >= h {
						continue
					}
					base := iy * w
					for ox := 0; ox < ow; ox++ {
						ix := ox*p.Stride + kx - p.Padding
						if ix < 0 || ix >= w {
							continue
						}
						chn[base+ix] += crow[oy*ow+ox]
					}
				}
				row++
			}
		}
	}
	return out
}

// Conv2D applies outC filters (weights shaped outC×C×KH×KW, bias length
// outC) to input (C×H×W), returning outC×OH×OW. It is implemented as
// Im2Col + MatMul, the standard lowering.
func Conv2D(in, weights, bias *Tensor, p ConvParams) *Tensor {
	p.validate()
	if weights.Rank() != 4 {
		panic("tensor: Conv2D weights must be rank 4 (outC,C,KH,KW)")
	}
	outC, c := weights.Shape[0], weights.Shape[1]
	if weights.Shape[2] != p.KH || weights.Shape[3] != p.KW {
		panic("tensor: Conv2D kernel size mismatch")
	}
	if in.Shape[0] != c {
		panic(fmt.Sprintf("tensor: Conv2D channels %d vs weights %d", in.Shape[0], c))
	}
	h, w := in.Shape[1], in.Shape[2]
	oh, ow := p.OutSize(h, w)
	cols := Im2Col(in, p)
	wmat := weights.Reshape(outC, c*p.KH*p.KW)
	out := MatMul(wmat, cols) // outC × (oh*ow)
	if bias != nil {
		if bias.Len() != outC {
			panic("tensor: Conv2D bias length mismatch")
		}
		for o := 0; o < outC; o++ {
			b := bias.Data[o]
			row := out.Data[o*oh*ow : (o+1)*oh*ow]
			for i := range row {
				row[i] += b
			}
		}
	}
	return out.Reshape(outC, oh, ow)
}

// Conv2DNaive is a reference direct convolution used to property-test the
// im2col implementation.
func Conv2DNaive(in, weights, bias *Tensor, p ConvParams) *Tensor {
	p.validate()
	outC, c := weights.Shape[0], weights.Shape[1]
	h, w := in.Shape[1], in.Shape[2]
	oh, ow := p.OutSize(h, w)
	out := New(outC, oh, ow)
	for o := 0; o < outC; o++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float32
				if bias != nil {
					s = bias.Data[o]
				}
				for ci := 0; ci < c; ci++ {
					for ky := 0; ky < p.KH; ky++ {
						iy := oy*p.Stride + ky - p.Padding
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < p.KW; kx++ {
							ix := ox*p.Stride + kx - p.Padding
							if ix < 0 || ix >= w {
								continue
							}
							s += in.At(ci, iy, ix) * weights.At(o, ci, ky, kx)
						}
					}
				}
				out.Set(s, o, oy, ox)
			}
		}
	}
	return out
}

// MaxPool2D applies non-overlapping k×k max pooling to a C×H×W tensor.
// It returns the pooled tensor and the flat argmax indices (into the input
// channel plane) needed by the backward pass.
func MaxPool2D(in *Tensor, k int) (out *Tensor, argmax []int) {
	if k <= 0 {
		panic("tensor: MaxPool2D k must be positive")
	}
	c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
	oh, ow := h/k, w/k
	if oh == 0 || ow == 0 {
		panic(fmt.Sprintf("tensor: MaxPool2D k=%d too large for %v", k, in.Shape))
	}
	out = New(c, oh, ow)
	argmax = make([]int, c*oh*ow)
	for ci := 0; ci < c; ci++ {
		chn := in.Data[ci*h*w : (ci+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(-1e30)
				bi := -1
				for ky := 0; ky < k; ky++ {
					iy := oy*k + ky
					for kx := 0; kx < k; kx++ {
						ix := ox*k + kx
						v := chn[iy*w+ix]
						if v > best {
							best, bi = v, iy*w+ix
						}
					}
				}
				oi := (ci*oh+oy)*ow + ox
				out.Data[oi] = best
				argmax[oi] = ci*h*w + bi
			}
		}
	}
	return out, argmax
}

// MaxPool2DBackward scatters output gradients to the argmax positions.
func MaxPool2DBackward(gradOut *Tensor, argmax []int, inShape []int) *Tensor {
	grad := New(inShape...)
	for i, g := range gradOut.Data {
		grad.Data[argmax[i]] += g
	}
	return grad
}

// GlobalAvgPool reduces C×H×W to a length-C vector of per-channel means —
// the GAP stage of the paper's Figure 2 architecture.
func GlobalAvgPool(in *Tensor) *Tensor {
	c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
	out := New(c)
	n := float32(h * w)
	for ci := 0; ci < c; ci++ {
		var s float32
		for _, v := range in.Data[ci*h*w : (ci+1)*h*w] {
			s += v
		}
		out.Data[ci] = s / n
	}
	return out
}

// GlobalAvgPoolBackward spreads a length-C gradient uniformly across each
// channel plane.
func GlobalAvgPoolBackward(gradOut *Tensor, c, h, w int) *Tensor {
	grad := New(c, h, w)
	inv := 1 / float32(h*w)
	for ci := 0; ci < c; ci++ {
		g := gradOut.Data[ci] * inv
		plane := grad.Data[ci*h*w : (ci+1)*h*w]
		for i := range plane {
			plane[i] = g
		}
	}
	return grad
}
