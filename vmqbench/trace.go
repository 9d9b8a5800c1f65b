package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/simclock"
	"vmq/internal/video"
)

// layer names one span kind: a call into one of the program's layers,
// timed from the benchmark's side of the call.
type layer uint8

const (
	spanEvent       layer = iota // root: a frame's due (or ingest) time until its event is read
	spanPublish                  // stream: PushSource.Publish on the load generator
	spanFilterBatch              // filters: one EvaluateBatch/Evaluate call on a feed backend
	spanFilterFrame              // filters: one frame's share of a batch call (parent: the batch)
	spanDetect                   // detect: one confirming-detector call
	spanRead                     // rlog: one blocking consumer read (of the result log, or of the merged stream's socket)
	spanRegister                 // server: one query registration
	spanRender                   // video: one RenderBatchInto call of the probe
	spanForward                  // nn: one ForwardBatch call of the probe
)

var layerNames = [...]string{
	spanEvent:       "event",
	spanPublish:     "stream.publish",
	spanFilterBatch: "filters.batch",
	spanFilterFrame: "filters.frame",
	spanDetect:      "detect.call",
	spanRead:        "rlog.read",
	spanRegister:    "server.register",
	spanRender:      "video.render",
	spanForward:     "nn.forward",
}

func (l layer) String() string { return layerNames[l] }

// noFrame marks a span not tied to one frame.
var noFrame = frameKey{feed: -1, idx: -1}

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// parent indexes the tracer's span list (-1 for roots); frame is the
// frame the span worked on; n counts the frames a batch span covered.
type span struct {
	layer      layer
	start, end int64
	parent     int32
	frame      frameKey
	n          int32
}

// tracer keeps spans in memory for the length of a traced pass. A nil
// tracer is the untraced configuration: wrappers are not installed and
// the recording helpers are no-ops.
type tracer struct {
	epoch time.Time
	keys  map[*video.Frame]frameKey // read-only after construction

	mu    sync.Mutex
	spans []span
}

func newTracer(keys map[*video.Frame]frameKey) *tracer {
	return &tracer{epoch: time.Now(), keys: keys}
}

// now is the tracer clock (monotonic, ns since the epoch); 0 on a nil
// tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// at converts a wall instant to the tracer clock.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

// record adds a span for one frame (or noFrame) starting at start and
// ending now.
func (t *tracer) record(l layer, start int64, fk frameKey) {
	if t == nil {
		return
	}
	t.add(span{layer: l, start: start, end: t.now(), parent: -1, frame: fk, n: 1})
}

// batch adds a batch span and one child span per frame it covered.
func (t *tracer) batch(start int64, frames []*video.Frame) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(len(t.spans))
	t.spans = append(t.spans, span{layer: spanFilterBatch, start: start, end: end, parent: -1, frame: noFrame, n: int32(len(frames))})
	for _, f := range frames {
		fk, ok := t.keys[f]
		if !ok {
			fk = noFrame
		}
		t.spans = append(t.spans, span{layer: spanFilterFrame, start: start, end: end, parent: parent, frame: fk, n: 1})
	}
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// maxWrittenSpans caps the span file: enough for every frame of a traced
// pass on the workloads as sized, bounded so a long run cannot fill the
// disk.
const maxWrittenSpans = 200_000

// writeTrace writes the header (host facts, per-layer metrics) and then
// one JSON array per span: [layer, start_ns, end_ns, parent, feed, idx, n].
func writeTrace(path string, header any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for i, s := range spans {
		if i == maxWrittenSpans {
			fmt.Fprintf(w, "{\"truncated\":%d}\n", len(spans)-i)
			break
		}
		fmt.Fprintf(w, "[%q,%d,%d,%d,%d,%d,%d]\n", s.layer, s.start, s.end, s.parent, s.frame.feed, s.frame.idx, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- filter backend wrapper ---

// tracedBackend times every evaluation of a feed's filter backend. The
// server type-asserts a backend's optional interfaces (batching, the
// coalescing identity, the worker budget, concurrency safety), so
// traceBackend returns a value implementing exactly the optional
// interfaces the wrapped backend does — the traced run takes the same
// code paths as the untraced one.
type tracedBackend struct {
	inner filters.Backend
	tr    *tracer
}

func (b *tracedBackend) Technique() filters.Technique { return b.inner.Technique() }
func (b *tracedBackend) Grid() int                    { return b.inner.Grid() }

func (b *tracedBackend) Evaluate(f *video.Frame) *filters.Output {
	start := b.tr.now()
	out := b.inner.Evaluate(f)
	b.tr.batch(start, []*video.Frame{f})
	return out
}

type batchPart struct{ b *tracedBackend }

func (p batchPart) EvaluateBatch(frames []*video.Frame, dst []*filters.Output) []*filters.Output {
	start := p.b.tr.now()
	dst = p.b.inner.(filters.BatchBackend).EvaluateBatch(frames, dst)
	p.b.tr.batch(start, frames)
	return dst
}

type coalescePart struct{ b *tracedBackend }

func (p coalescePart) CoalesceKey() string { return p.b.inner.(filters.Coalescable).CoalesceKey() }

type parallelPart struct{ b *tracedBackend }

func (p parallelPart) SetEvalWorkers(n int) { p.b.inner.(filters.Parallel).SetEvalWorkers(n) }
func (p parallelPart) ForwardFlops() int64  { return p.b.inner.(filters.Parallel).ForwardFlops() }

type concurrentPart struct{ b *tracedBackend }

func (p concurrentPart) ConcurrentSafe() bool {
	return p.b.inner.(filters.ConcurrentBackend).ConcurrentSafe()
}

// Optional backend interfaces, as bits of a capability mask.
const (
	capBatch = 1 << iota
	capCoalesce
	capParallel
	capConcurrent
)

func backendCaps(b filters.Backend) int {
	caps := 0
	if _, ok := b.(filters.BatchBackend); ok {
		caps |= capBatch
	}
	if _, ok := b.(filters.Coalescable); ok {
		caps |= capCoalesce
	}
	if _, ok := b.(filters.Parallel); ok {
		caps |= capParallel
	}
	if _, ok := b.(filters.ConcurrentBackend); ok {
		caps |= capConcurrent
	}
	return caps
}

// traceBackend wraps b so every evaluation is recorded on tr. A nil
// tracer returns b itself.
func traceBackend(b filters.Backend, tr *tracer) filters.Backend {
	if tr == nil {
		return b
	}
	t := &tracedBackend{inner: b, tr: tr}
	bp, cp, pp, kp := batchPart{t}, coalescePart{t}, parallelPart{t}, concurrentPart{t}
	// Coalescable embeds BatchBackend, so a coalescing bit never appears
	// without the batch bit.
	switch backendCaps(b) {
	case 0:
		return t
	case capBatch:
		return struct {
			*tracedBackend
			batchPart
		}{t, bp}
	case capBatch | capCoalesce:
		return struct {
			*tracedBackend
			batchPart
			coalescePart
		}{t, bp, cp}
	case capParallel:
		return struct {
			*tracedBackend
			parallelPart
		}{t, pp}
	case capConcurrent:
		return struct {
			*tracedBackend
			concurrentPart
		}{t, kp}
	case capParallel | capConcurrent:
		return struct {
			*tracedBackend
			parallelPart
			concurrentPart
		}{t, pp, kp}
	case capBatch | capParallel:
		return struct {
			*tracedBackend
			batchPart
			parallelPart
		}{t, bp, pp}
	case capBatch | capConcurrent:
		return struct {
			*tracedBackend
			batchPart
			concurrentPart
		}{t, bp, kp}
	case capBatch | capParallel | capConcurrent:
		return struct {
			*tracedBackend
			batchPart
			parallelPart
			concurrentPart
		}{t, bp, pp, kp}
	case capBatch | capCoalesce | capParallel:
		return struct {
			*tracedBackend
			batchPart
			coalescePart
			parallelPart
		}{t, bp, cp, pp}
	case capBatch | capCoalesce | capConcurrent:
		return struct {
			*tracedBackend
			batchPart
			coalescePart
			concurrentPart
		}{t, bp, cp, kp}
	case capBatch | capCoalesce | capParallel | capConcurrent:
		return struct {
			*tracedBackend
			batchPart
			coalescePart
			parallelPart
			concurrentPart
		}{t, bp, cp, pp, kp}
	}
	panic(fmt.Sprintf("traceBackend: capability mask %b has no wrapper", backendCaps(b)))
}

// --- detector wrapper ---

// tracedDetector times every confirming-detector call. The server shares
// one detector memo across a feed's queries only when the detector
// declares detect.OrderInsensitive, so traceDetector forwards that
// declaration exactly.
type tracedDetector struct {
	inner detect.Detector
	tr    *tracer
}

func (d *tracedDetector) Detect(f *video.Frame) []detect.Detection {
	start := d.tr.now()
	dets := d.inner.Detect(f)
	fk, ok := d.tr.keys[f]
	if !ok {
		fk = noFrame
	}
	d.tr.record(spanDetect, start, fk)
	return dets
}

func (d *tracedDetector) Cost() simclock.Cost { return d.inner.Cost() }

type orderPart struct{ d *tracedDetector }

func (p orderPart) OrderInsensitiveDetections() bool {
	return p.d.inner.(detect.OrderInsensitive).OrderInsensitiveDetections()
}

// traceDetector wraps d so every call is recorded on tr. A nil tracer
// returns d itself.
func traceDetector(d detect.Detector, tr *tracer) detect.Detector {
	if tr == nil {
		return d
	}
	t := &tracedDetector{inner: d, tr: tr}
	if _, ok := d.(detect.OrderInsensitive); ok {
		return struct {
			*tracedDetector
			orderPart
		}{t, orderPart{t}}
	}
	return t
}
