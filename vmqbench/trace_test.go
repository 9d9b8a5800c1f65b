package main

import (
	"testing"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/simclock"
	"vmq/internal/video"
)

// Fake backend parts, composed into one fake per capability mask.
type fakeBase struct{}

func (fakeBase) Technique() filters.Technique { return filters.IC }
func (fakeBase) Grid() int                    { return 4 }
func (fakeBase) Evaluate(*video.Frame) *filters.Output {
	return &filters.Output{Total: 1}
}

type fakeBatch struct{}

func (fakeBatch) EvaluateBatch(frames []*video.Frame, dst []*filters.Output) []*filters.Output {
	for range frames {
		dst = append(dst, &filters.Output{Total: 2})
	}
	return dst
}

type fakeCoalesce struct{}

func (fakeCoalesce) CoalesceKey() string { return "fake-key" }

type fakeParallel struct{ workers *int }

func (p fakeParallel) SetEvalWorkers(n int) { *p.workers = n }
func (fakeParallel) ForwardFlops() int64    { return 42 }

type fakeConcurrent struct{}

func (fakeConcurrent) ConcurrentSafe() bool { return true }

// fakeWith builds a backend implementing exactly the optional interfaces
// in mask.
func fakeWith(mask int, workers *int) filters.Backend {
	b, bb, c, p, k := fakeBase{}, fakeBatch{}, fakeCoalesce{}, fakeParallel{workers}, fakeConcurrent{}
	switch mask {
	case 0:
		return b
	case capBatch:
		return struct {
			fakeBase
			fakeBatch
		}{b, bb}
	case capBatch | capCoalesce:
		return struct {
			fakeBase
			fakeBatch
			fakeCoalesce
		}{b, bb, c}
	case capParallel:
		return struct {
			fakeBase
			fakeParallel
		}{b, p}
	case capConcurrent:
		return struct {
			fakeBase
			fakeConcurrent
		}{b, k}
	case capParallel | capConcurrent:
		return struct {
			fakeBase
			fakeParallel
			fakeConcurrent
		}{b, p, k}
	case capBatch | capParallel:
		return struct {
			fakeBase
			fakeBatch
			fakeParallel
		}{b, bb, p}
	case capBatch | capConcurrent:
		return struct {
			fakeBase
			fakeBatch
			fakeConcurrent
		}{b, bb, k}
	case capBatch | capParallel | capConcurrent:
		return struct {
			fakeBase
			fakeBatch
			fakeParallel
			fakeConcurrent
		}{b, bb, p, k}
	case capBatch | capCoalesce | capParallel:
		return struct {
			fakeBase
			fakeBatch
			fakeCoalesce
			fakeParallel
		}{b, bb, c, p}
	case capBatch | capCoalesce | capConcurrent:
		return struct {
			fakeBase
			fakeBatch
			fakeCoalesce
			fakeConcurrent
		}{b, bb, c, k}
	case capBatch | capCoalesce | capParallel | capConcurrent:
		return struct {
			fakeBase
			fakeBatch
			fakeCoalesce
			fakeParallel
			fakeConcurrent
		}{b, bb, c, p, k}
	}
	return nil
}

func TestTraceBackendForwardsEveryOptionalInterface(t *testing.T) {
	frames := video.NewStream(video.Jackson(), 1).Take(3)
	keys := map[*video.Frame]frameKey{frames[0]: {0, 0}, frames[1]: {0, 1}, frames[2]: {0, 2}}
	for mask := 0; mask < 16; mask++ {
		if mask&capCoalesce != 0 && mask&capBatch == 0 {
			continue // Coalescable embeds BatchBackend
		}
		var workers int
		inner := fakeWith(mask, &workers)
		if got := backendCaps(inner); got != mask {
			t.Fatalf("fake for mask %04b implements %04b", mask, got)
		}
		tr := newTracer(keys)
		b := traceBackend(inner, tr)
		if got := backendCaps(b); got != mask {
			t.Errorf("mask %04b: wrapper implements %04b", mask, got)
			continue
		}
		if out := b.Evaluate(frames[0]); out.Total != 1 {
			t.Errorf("mask %04b: Evaluate not forwarded", mask)
		}
		if b.Technique() != filters.IC || b.Grid() != 4 {
			t.Errorf("mask %04b: Technique/Grid not forwarded", mask)
		}
		wantSpans := 2 // a batch span and its one frame span
		if mask&capBatch != 0 {
			outs := b.(filters.BatchBackend).EvaluateBatch(frames, nil)
			if len(outs) != 3 || outs[0].Total != 2 {
				t.Errorf("mask %04b: EvaluateBatch not forwarded: %v", mask, outs)
			}
			wantSpans += 4
		}
		if mask&capCoalesce != 0 && filters.CoalesceKeyOf(b) != "fake-key" {
			t.Errorf("mask %04b: CoalesceKey not forwarded", mask)
		}
		if mask&capParallel != 0 {
			filters.SetEvalWorkers(b, 3)
			if workers != 3 || filters.ForwardFlopsOf(b) != 42 {
				t.Errorf("mask %04b: Parallel not forwarded (workers %d)", mask, workers)
			}
		}
		if mask&capConcurrent != 0 && !filters.ConcurrentSafe(b) {
			t.Errorf("mask %04b: ConcurrentSafe not forwarded", mask)
		}
		spans := tr.snapshot()
		if len(spans) != wantSpans {
			t.Fatalf("mask %04b: %d spans, want %d", mask, len(spans), wantSpans)
		}
		wantFrame := frameKey{0, 0}
		if mask&capBatch != 0 {
			wantFrame = frameKey{0, 2}
		}
		last := spans[len(spans)-1]
		if last.layer != spanFilterFrame || last.frame != wantFrame || spans[last.parent].layer != spanFilterBatch {
			t.Errorf("mask %04b: last span %+v is not frame %v's child of a batch span", mask, last, wantFrame)
		}
	}
}

func TestTraceBackendKeepsRealBackendIdentity(t *testing.T) {
	p := video.Jackson()
	trained := newCNN(p)
	wrapped := traceBackend(trained, newTracer(nil))
	if backendCaps(wrapped) != backendCaps(trained) {
		t.Fatalf("trained backend caps %04b, wrapped %04b", backendCaps(trained), backendCaps(wrapped))
	}
	if filters.CoalesceKeyOf(wrapped) != filters.CoalesceKeyOf(trained) {
		t.Error("wrapped trained backend changed its coalescing identity")
	}
	cal := filters.NewODFilter(p, 1, nil)
	if backendCaps(traceBackend(cal, newTracer(nil))) != backendCaps(cal) {
		t.Error("wrapped calibrated backend changed its interfaces")
	}
	if traceBackend(cal, nil) != filters.Backend(cal) {
		t.Error("a nil tracer must leave the backend unwrapped")
	}
}

type fakeDetector struct{}

func (fakeDetector) Detect(*video.Frame) []detect.Detection { return nil }
func (fakeDetector) Cost() simclock.Cost                    { return simclock.CostYOLOFull }

func TestTraceDetectorForwardsOrderInsensitive(t *testing.T) {
	f := video.NewStream(video.Jackson(), 1).Next()
	tr := newTracer(map[*video.Frame]frameKey{f: {1, 7}})

	oracle := traceDetector(detect.NewOracle(nil), tr)
	if !detect.IsOrderInsensitive(oracle) {
		t.Error("wrapped oracle lost OrderInsensitive")
	}
	if got, want := len(oracle.Detect(f)), len(detect.NewOracle(nil).Detect(f)); got != want {
		t.Errorf("wrapped oracle found %d detections, want %d", got, want)
	}
	plain := traceDetector(fakeDetector{}, tr)
	if _, ok := plain.(detect.OrderInsensitive); ok {
		t.Error("wrapper claims OrderInsensitive for a detector without it")
	}
	if plain.Cost() != simclock.CostYOLOFull {
		t.Error("Cost not forwarded")
	}
	spans := tr.snapshot()
	if len(spans) != 1 || spans[0].layer != spanDetect || spans[0].frame != (frameKey{1, 7}) {
		t.Errorf("spans = %+v, want one detect span on frame {1 7}", spans)
	}
	if traceDetector(fakeDetector{}, nil) != detect.Detector(fakeDetector{}) {
		t.Error("a nil tracer must leave the detector unwrapped")
	}
}
