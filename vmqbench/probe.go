package main

import (
	"time"

	"vmq/internal/nn"
	"vmq/internal/tensor"
	"vmq/internal/video"
)

// probeResult is the standalone cost of the filter scan's two compute
// stages at one batch size.
type probeResult struct {
	batch     int
	renderUs  float64 // per frame
	forwardUs float64 // per frame
	gflops    float64
}

// probeScan times video.RenderBatchInto and CountLocNet.ForwardBatch of
// the default-geometry OD network on frames at the given batch size,
// each for about budget, and reports per-frame medians. The op count is
// the network's own ForwardFlops estimate.
func probeScan(p video.Profile, frames []*video.Frame, batch int, budget time.Duration, tr *tracer) probeResult {
	batch = max(1, min(batch, len(frames)))
	frames = frames[:batch]
	net := newCNN(p)
	buf := tensor.New(batch, 3, net.Img, net.Img)
	var ar nn.Arena

	timeLoop := func(l layer, call func()) float64 {
		var per []float64
		for end := time.Now().Add(budget); time.Now().Before(end) || len(per) < 5; {
			start, t0 := tr.now(), time.Now()
			call()
			per = append(per, float64(time.Since(t0))/1e3/float64(batch))
			tr.record(l, start, noFrame)
		}
		return median(per)
	}
	res := probeResult{batch: batch}
	res.renderUs = timeLoop(spanRender, func() { video.RenderBatchInto(buf, frames, net.NoiseSeed, 0) })
	res.forwardUs = timeLoop(spanForward, func() {
		ar.Reset()
		net.Net.ForwardBatch(&ar, buf)
	})
	if res.forwardUs > 0 {
		res.gflops = float64(net.ForwardFlops()) / (res.forwardUs * 1e3)
	}
	return res
}
