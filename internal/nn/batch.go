package nn

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"vmq/internal/tensor"
)

// Batched inference
//
// ForwardBatch runs a batch of N frames as N one-frame tiles. Up to
// Arena.Workers workers claim tiles from a shared counter, and each runs
// the whole layer stack on its tile with its own child arena, then copies
// the tile's results into its rows of the batch-major outputs. A tile's
// working set — a frame's im2col matrix, activations and maps — fits one
// core's cache, and every layer of it runs on that core: im2col, GEMM,
// pooling, GAP and the class-activation maps all parallelise, not only the
// GEMMs. After the first call the arenas reuse every buffer and tensor
// header, so a warmed single-worker pass allocates nothing.
//
// Inside a tile, activations use the feature-major batch layout of package
// tensor with N = 1 (C×1×H×W, byte-for-byte a CHW frame), so the layers
// run through the tensor package's batched kernels.
//
// The batched pass is bit-identical to the per-frame Forward path: every
// kernel accumulates each output element in ascending-k order, and a tile
// is one frame whichever worker runs it, which is what lets the trained
// filter backends serve Evaluate and EvaluateBatch from one code path with
// results independent of how frames were grouped or how many workers ran.
//
// ForwardBatch is inference-only: it records no caches for Backward. The
// naive per-frame Forward/Backward path remains the training
// implementation and the correctness reference the batched kernels are
// property-tested against.

// Arena is the reusable scratch allocator behind ForwardBatch. A forward
// pass grabs buffers in a deterministic sequence, so after the first call
// every buffer is reused and the pass allocates nothing per frame. An
// Arena (and any tensor returned from a ForwardBatch using it) must not be
// shared between concurrent forward passes; results are valid until the
// arena's next Reset.
type Arena struct {
	// Workers bounds how many frame tiles of one forward pass run at
	// once: 0 (the zero value) sizes the pool to GOMAXPROCS, a positive
	// value pins it — the hook the server's coalescing broker uses to
	// split one CPU budget across concurrent evaluators instead of
	// oversubscribing every merged batch. A pass never uses more workers
	// than it has frames.
	Workers int

	slots []*arenaSlot
	next  int
	tiles []*Arena // one child arena per tile worker, reused across calls
}

// arenaSlot is one reusable buffer plus the tensor header handed out over
// it, so a warmed pass allocates neither data nor headers.
type arenaSlot struct {
	buf []float32
	t   tensor.Tensor
}

// Reset rewinds the arena so the next forward pass reuses its buffers.
// Tensors handed out since the previous Reset become invalid.
func (a *Arena) Reset() { a.next = 0 }

func (a *Arena) slot() *arenaSlot {
	if a.next == len(a.slots) {
		a.slots = append(a.slots, &arenaSlot{})
	}
	s := a.slots[a.next]
	a.next++
	return s
}

// tensor returns an arena-backed tensor of the given shape with undefined
// contents; kernels writing into arena tensors must not assume zeroed
// memory.
//
// Regrowth carries headroom: the server's cross-feed coalescing hands the
// same network batches whose width fluctuates flush to flush, and
// doubling-with-slack lets the batch-wide outputs settle after one
// reallocation instead of reallocating at each new maximum.
func (a *Arena) tensor(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	s := a.slot()
	if cap(s.buf) < n {
		s.buf = make([]float32, max(2*cap(s.buf), n+n/4))
	}
	return s.header(s.buf[:n], shape)
}

// view returns an arena-owned tensor header over data (not copied).
func (a *Arena) view(data []float32, shape ...int) *tensor.Tensor {
	return a.slot().header(data, shape)
}

func (s *arenaSlot) header(data []float32, shape []int) *tensor.Tensor {
	s.t.Data = data
	s.t.Shape = append(s.t.Shape[:0], shape...)
	return &s.t
}

// tiler is a network whose batched forward pass decomposes into one-frame
// tiles: forwardTile runs frame x (C×1×H×W) through the network on arena
// t and writes the results into row f of out0 (and of out1, for networks
// with a second output).
type tiler interface {
	forwardTile(t *Arena, x *tensor.Tensor, f int, out0, out1 *tensor.Tensor)
}

// forEachFrame runs net over every frame of an NCHW batch as one-frame
// tiles on min(Workers, N) workers, the caller's goroutine among them. A
// panic in any tile is re-raised on the caller's goroutine once every
// worker has stopped, so no worker outlives the call.
func (ar *Arena) forEachFrame(net tiler, batch, out0, out1 *tensor.Tensor) {
	nb := batch.Shape[0]
	workers := ar.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, nb)
	for len(ar.tiles) < workers {
		ar.tiles = append(ar.tiles, &Arena{})
	}
	if workers <= 1 {
		for f := 0; f < nb; f++ {
			ar.tiles[0].tile(net, batch, f, out0, out1)
		}
		return
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		fault any
	)
	work := func(t *Arena) {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if fault == nil {
					fault = r
				}
				mu.Unlock()
			}
		}()
		for f := int(next.Add(1)) - 1; f < nb; f = int(next.Add(1)) - 1 {
			t.tile(net, batch, f, out0, out1)
		}
	}
	wg.Add(workers)
	for _, t := range ar.tiles[1:workers] {
		go work(t)
	}
	work(ar.tiles[0])
	wg.Wait()
	if fault != nil {
		panic(fault)
	}
}

// tile runs frame f of batch through net on this (child) arena.
func (a *Arena) tile(net tiler, batch *tensor.Tensor, f int, out0, out1 *tensor.Tensor) {
	a.Reset()
	c, h, w := batch.Shape[1], batch.Shape[2], batch.Shape[3]
	x := a.view(batch.Data[f*c*h*w:(f+1)*c*h*w], c, 1, h, w)
	net.forwardTile(a, x, f, out0, out1)
}

func checkBatch(batch *tensor.Tensor) {
	if batch.Rank() != 4 {
		panic(fmt.Sprintf("nn: ForwardBatch needs an NCHW batch, got %v", batch.Shape))
	}
}

// ForwardBatch runs a batch of inputs (leading batch dimension: N×C×H×W)
// through the layer stack and returns the batch-major output (N×C×OH×OW
// after a conv stack, N×C after GAP, N×out after a Linear head). The
// result is arena-backed: valid until the arena is next Reset. Per-frame
// results are bit-identical to Forward.
func (s *Sequential) ForwardBatch(ar *Arena, batch *tensor.Tensor) *tensor.Tensor {
	checkBatch(batch)
	nb := batch.Shape[0]
	_, fs := stackShape(s.Layers, frameShape{c: batch.Shape[1], h: batch.Shape[2], w: batch.Shape[3]})
	var out *tensor.Tensor
	if fs.flat {
		out = ar.tensor(nb, fs.c)
	} else {
		out = ar.tensor(nb, fs.c, fs.h, fs.w)
	}
	ar.forEachFrame(s, batch, out, nil)
	return out
}

// forwardTile implements tiler: the stack's output for one frame is its
// row of the batch-major output.
func (s *Sequential) forwardTile(t *Arena, x *tensor.Tensor, f int, out, _ *tensor.Tensor) {
	y := forwardLayers(t, s.Layers, x)
	row := len(out.Data) / out.Shape[0]
	if len(y.Data) != row {
		panic(fmt.Sprintf("nn: ForwardBatch frame output %v does not fit a %v batch", y.Shape, out.Shape))
	}
	copy(out.Data[f*row:(f+1)*row], y.Data)
}

// forwardLayers runs the layers over one frame (C×1×H×W). A ReLU or
// LeakyReLU directly after a convolution is fused into the conv's bias
// pass — same values, one fewer sweep over the activations.
func forwardLayers(t *Arena, layers []Layer, x *tensor.Tensor) *tensor.Tensor {
	for i := 0; i < len(layers); i++ {
		if conv, ok := layers[i].(*Conv2D); ok {
			var act Layer
			if i+1 < len(layers) {
				switch layers[i+1].(type) {
				case *ReLU, *LeakyReLU:
					act = layers[i+1]
					i++
				}
			}
			x = convForward(t, conv, x, act)
			continue
		}
		x = layerForward(t, layers[i], x)
	}
	return x
}

func layerForward(t *Arena, l Layer, x *tensor.Tensor) *tensor.Tensor {
	switch l := l.(type) {
	case *Conv2D:
		return convForward(t, l, x, nil)
	case *ReLU:
		for i, v := range x.Data {
			if v <= 0 {
				x.Data[i] = 0
			}
		}
		return x
	case *LeakyReLU:
		for i, v := range x.Data {
			if v <= 0 {
				x.Data[i] = v * l.Slope
			}
		}
		return x
	case *MaxPool:
		c, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
		return tensor.MaxPool2DBatchInto(t.tensor(c, 1, h/l.K, w/l.K), x, l.K)
	case *GlobalAvgPool:
		return tensor.GlobalAvgPoolBatchInto(t.tensor(x.Shape[0], 1), x)
	case *Linear:
		return linearForward(t, l, x)
	case *Sequential:
		return forwardLayers(t, l.Layers, x)
	default:
		panic(fmt.Sprintf("nn: ForwardBatch has no batched path for layer type %T", l))
	}
}

// convForward lowers one frame's convolution to an im2col and one GEMM:
// cols is (C·KH·KW)×(OH·OW), and the weight GEMM's output (outC × OH·OW)
// is already the next layer's outC×1×OH×OW input. A non-nil act (ReLU or
// LeakyReLU) is applied in the same pass as the bias.
func convForward(t *Arena, l *Conv2D, x *tensor.Tensor, act Layer) *tensor.Tensor {
	c, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := l.P.OutSize(h, w)
	outC := l.W.Value.Shape[0]
	ckk := l.W.Value.Len() / outC
	if c != l.W.Value.Shape[1] {
		panic(fmt.Sprintf("nn: ForwardBatch conv channels %d vs weights %v", c, l.W.Value.Shape))
	}
	cols := tensor.Im2ColBatchInto(t.tensor(ckk, oh*ow), x, l.P)
	kind, slope := tensor.ActNone, float32(0)
	switch a := act.(type) {
	case *ReLU:
		kind = tensor.ActReLU
	case *LeakyReLU:
		kind, slope = tensor.ActLeakyReLU, a.Slope
	}
	out := tensor.MatMulBiasAct(t.tensor(outC, oh*ow), t.view(l.W.Value.Data, outC, ckk), cols,
		l.B.Value.Data, kind, slope)
	out.Shape = append(out.Shape[:0], outC, 1, oh, ow) // arena-owned header
	return out
}

// linearForward applies a fully connected layer to one frame: a GEMM of
// the out×in weights against the frame as an in×1 column. A C×1×H×W frame
// is already flattened in the c-major order the per-frame path uses.
func linearForward(t *Arena, l *Linear, x *tensor.Tensor) *tensor.Tensor {
	out, in := l.W.Value.Shape[0], l.W.Value.Shape[1]
	if len(x.Data) != in {
		panic(fmt.Sprintf("nn: ForwardBatch linear input %d vs weights %v", len(x.Data), l.W.Value.Shape))
	}
	return tensor.MatMulBiasAct(t.tensor(out, 1), l.W.Value, t.view(x.Data, in, 1), l.B.Value.Data, tensor.ActNone, 0)
}

// frameShape is one frame's activation shape as it passes through a
// stack: c channels of h×w, or a flat vector of c features once a GAP or
// Linear has removed the spatial axes.
type frameShape struct {
	c, h, w int
	flat    bool
}

// stackShape walks a frame through the layers, returning the GEMM
// multiply-add flops it costs and its output shape.
func stackShape(layers []Layer, s frameShape) (int64, frameShape) {
	var fl int64
	for _, l := range layers {
		switch l := l.(type) {
		case *Conv2D:
			outC := l.W.Value.Shape[0]
			ckk := l.W.Value.Len() / outC
			oh, ow := l.P.OutSize(s.h, s.w)
			fl += 2 * int64(outC) * int64(ckk) * int64(oh) * int64(ow)
			s.c, s.h, s.w = outC, oh, ow
		case *MaxPool:
			s.h, s.w = s.h/l.K, s.w/l.K
		case *GlobalAvgPool:
			s.h, s.w, s.flat = 1, 1, true
		case *Linear:
			out, in := l.W.Value.Shape[0], l.W.Value.Shape[1]
			fl += 2 * int64(out) * int64(in)
			s = frameShape{c: out, h: 1, w: 1, flat: true}
		case *Sequential:
			var sub int64
			sub, s = stackShape(l.Layers, s)
			fl += sub
		}
	}
	return fl, s
}

// ForwardFlops estimates the multiply-add flops one frame of a c×h×w input
// costs through the stack — the GEMM terms only, which dominate. The
// coalescing broker multiplies this by the merged batch width to decide
// whether a flush is worth fanning across cores.
func (s *Sequential) ForwardFlops(c, h, w int) int64 {
	fl, _ := stackShape(s.Layers, frameShape{c: c, h: h, w: w})
	return fl
}

// ForwardFlops estimates the per-frame multiply-add flops of the backbone
// plus the count head and the Eq. 1 class-activation accumulation.
func (n *CountLocNet) ForwardFlops(c, h, w int) int64 {
	fl := n.Backbone.ForwardFlops(c, h, w)
	head := 2 * int64(n.classes) * int64(n.d)
	cam := 2 * int64(n.classes) * int64(n.d) * int64(n.g) * int64(n.g)
	return fl + head + cam
}

// ForwardFlops estimates the per-frame multiply-add flops of the
// count-only stack.
func (n *CountOnlyNet) ForwardFlops(c, h, w int) int64 { return n.Net.ForwardFlops(c, h, w) }

// ForwardBatch runs a batch of frames (N×C×H×W) through backbone and head,
// returning per-class counts (N×classes, post-ReLU) and class activation
// maps (N×classes×g×g). Both are arena-backed (valid until the arena's
// next Reset) and bit-identical per frame to Forward.
func (n *CountLocNet) ForwardBatch(ar *Arena, batch *tensor.Tensor) (counts, maps *tensor.Tensor) {
	checkBatch(batch)
	nb := batch.Shape[0]
	counts = ar.tensor(nb, n.classes)
	maps = ar.tensor(nb, n.classes, n.g, n.g)
	ar.forEachFrame(n, batch, counts, maps)
	return counts, maps
}

// forwardTile implements tiler: one frame's backbone, count head and
// Eq. 1 class activation maps, accumulated over k in the same order as
// the per-frame path.
func (n *CountLocNet) forwardTile(t *Arena, x *tensor.Tensor, f int, counts, maps *tensor.Tensor) {
	fm := forwardLayers(t, n.Backbone.Layers, x)
	if fm.Rank() != 4 || fm.Shape[0] != n.d || fm.Shape[2] != n.g || fm.Shape[3] != n.g {
		panic("nn: backbone output shape does not match CountLocNet head")
	}
	pooled := tensor.GlobalAvgPoolBatchInto(t.tensor(n.d, 1), fm)
	raw := linearForward(t, n.FC, pooled)
	crow := counts.Data[f*n.classes : (f+1)*n.classes]
	for i, v := range raw.Data {
		if v <= 0 {
			v = 0
		}
		crow[i] = v
	}

	plane := n.g * n.g
	mrow := maps.Data[f*n.classes*plane : (f+1)*n.classes*plane]
	clear(mrow)
	for c := 0; c < n.classes; c++ {
		mplane := mrow[c*plane : (c+1)*plane]
		for k, w := range n.FC.W.Value.Data[c*n.d : (c+1)*n.d] {
			if w == 0 {
				continue
			}
			for i, v := range fm.Data[k*plane : (k+1)*plane] {
				mplane[i] += w * v
			}
		}
	}
}

// ForwardBatch predicts the total object count for each frame of an NCHW
// batch, returning a length-N arena-backed tensor (valid until the
// arena's next Reset). Values are clamped at zero like Forward.
func (n *CountOnlyNet) ForwardBatch(ar *Arena, batch *tensor.Tensor) *tensor.Tensor {
	checkBatch(batch)
	out := ar.tensor(batch.Shape[0])
	ar.forEachFrame(n, batch, out, nil)
	return out
}

// forwardTile implements tiler: one frame's clamped total count.
func (n *CountOnlyNet) forwardTile(t *Arena, x *tensor.Tensor, f int, out, _ *tensor.Tensor) {
	v := forwardLayers(t, n.Net.Layers, x).Data[0]
	if v < 0 {
		v = 0
	}
	out.Data[f] = v
}
