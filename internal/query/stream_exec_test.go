package query

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/simclock"
	"vmq/internal/stream"
	"vmq/internal/video"
)

// requireSameResult compares every Result field, including Matched order.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Matched, want.Matched) {
		t.Fatalf("%s: Matched = %v, want %v", label, got.Matched, want.Matched)
	}
	if got.FramesTotal != want.FramesTotal {
		t.Fatalf("%s: FramesTotal = %d, want %d", label, got.FramesTotal, want.FramesTotal)
	}
	if got.FilterPassed != want.FilterPassed {
		t.Fatalf("%s: FilterPassed = %d, want %d", label, got.FilterPassed, want.FilterPassed)
	}
	if got.DetectorCalls != want.DetectorCalls {
		t.Fatalf("%s: DetectorCalls = %d, want %d", label, got.DetectorCalls, want.DetectorCalls)
	}
	if got.VirtualTime != want.VirtualTime {
		t.Fatalf("%s: VirtualTime = %v, want %v", label, got.VirtualTime, want.VirtualTime)
	}
}

// The pipelined executor must be indistinguishable from the sequential
// reference loop for a fixed seed: same matches in the same order, same
// counter and virtual-time accounting — across sparse and dense streams,
// count-only and spatial predicates, both filter families, and the
// brute-force (nil backend) configuration.
func TestRunStreamMatchesSequential(t *testing.T) {
	cases := []struct {
		name     string
		profile  video.Profile
		querySrc string
		ic       bool
		brute    bool
		tol      Tolerances
	}{
		{name: "jackson-count", profile: video.Jackson(),
			querySrc: `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1 AND COUNT(person) = 1`},
		{name: "jackson-spatial", profile: video.Jackson(), tol: Tolerances{Count: 1, Location: 2},
			querySrc: `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1 AND COUNT(person) = 1 AND car LEFT OF person`},
		{name: "detrac-dense", profile: video.Detrac(), tol: Tolerances{Count: 1},
			querySrc: `SELECT FRAMES FROM detrac WHERE COUNT(bus) >= 1 AND bus IN QUADRANT(UPPER LEFT)`},
		{name: "coral-ic", profile: video.Coral(), ic: true, tol: Tolerances{Count: 2, Location: 1},
			querySrc: `SELECT FRAMES FROM coral WHERE COUNT(person) >= 8`},
		{name: "jackson-brute", profile: video.Jackson(), brute: true,
			querySrc: `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1`},
	}
	const n = 700
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := MustBind(parse(t, tc.querySrc), tc.profile)
			frames := video.NewStream(tc.profile, 77).Take(n)
			mkEngine := func() *Engine {
				e := &Engine{Detector: detect.NewOracle(nil), Tol: tc.tol}
				if tc.brute {
					return e
				}
				if tc.ic {
					e.Backend = filters.NewICFilter(tc.profile, 77, nil)
				} else {
					e.Backend = filters.NewODFilter(tc.profile, 77, nil)
				}
				return e
			}
			want := mkEngine().RunSequential(plan, frames)
			got := mkEngine().RunStream(plan, &stream.SliceSource{Frames: frames}, n)
			requireSameResult(t, "RunStream", got, want)
			adapter := mkEngine().Run(plan, frames)
			requireSameResult(t, "Run adapter", adapter, want)
			// And again, to prove the pipeline is deterministic run-to-run.
			again := mkEngine().RunStream(plan, &stream.SliceSource{Frames: frames}, n)
			requireSameResult(t, "RunStream repeat", again, want)
			// A capped worker pool (as RunMulti uses) changes nothing.
			capped := mkEngine()
			capped.Workers = 1
			requireSameResult(t, "Workers=1",
				capped.RunStream(plan, &stream.SliceSource{Frames: frames}, n), want)
			// Nor does frame-at-a-time chunking (as the server uses for
			// low-latency match streaming).
			unchunked := mkEngine()
			unchunked.ChunkSize = 1
			requireSameResult(t, "ChunkSize=1",
				unchunked.RunStream(plan, &stream.SliceSource{Frames: frames}, n), want)
		})
	}
}

// batchRecorder records the size of every EvaluateBatch call reaching a
// trained backend.
type batchRecorder struct {
	*filters.Trained
	mu    sync.Mutex
	sizes []int
}

func (r *batchRecorder) EvaluateBatch(frames []*video.Frame, dst []*filters.Output) []*filters.Output {
	r.mu.Lock()
	r.sizes = append(r.sizes, len(frames))
	r.mu.Unlock()
	return r.Trained.EvaluateBatch(frames, dst)
}

// backlogSource is a recording that reports its remaining frames as
// buffered, like a live feed's subscription that has fallen behind.
type backlogSource struct{ stream.SliceSource }

func (b *backlogSource) Depth() int { return b.Remaining() }

// A trained (real-CNN) backend goes down the native batched path in
// RunStream — whole chunks per ForwardBatch — and must still be
// field-identical to the sequential per-frame reference: the batched
// kernels are bit-identical per frame regardless of how frames are
// chunked. Untrained weights keep the test fast; the kernels are the same.
// A backlogged live source (one reporting Depth) fills its chunks from
// what it already holds, up to the cap.
func TestRunStreamBatchedTrainedMatchesSequential(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1`), p)
	frames := video.NewStream(p, 31).Take(150)
	cfg := filters.TrainedConfig{Img: 32, Channels: 8, Seed: 31}
	mk := func(b filters.Backend) *Engine {
		return &Engine{Backend: b, Detector: detect.NewOracle(nil), Tol: Tolerances{Count: 1}}
	}
	want := mk(filters.NewUntrained(filters.OD, p, cfg, nil)).RunSequential(plan, frames)
	for _, tc := range []struct {
		chunk   int
		backlog bool
	}{{0, false}, {1, false}, {7, false}, {64, false}, {8, true}} {
		rec := &batchRecorder{Trained: filters.NewUntrained(filters.OD, p, cfg, nil)}
		eng := mk(rec)
		eng.ChunkSize = tc.chunk
		var src stream.Source = &stream.SliceSource{Frames: frames}
		if tc.backlog {
			src = &backlogSource{stream.SliceSource{Frames: frames}}
		}
		got := eng.RunStream(plan, src, len(frames))
		requireSameResult(t, "trained chunked", got, want)
		if tc.backlog {
			if slices.Max(rec.sizes) <= 1 || slices.Max(rec.sizes) > tc.chunk {
				t.Fatalf("backlogged source: batch sizes %v, want some above 1 and none above %d", rec.sizes, tc.chunk)
			}
		}
	}
	if want.FramesTotal != 150 {
		t.Fatalf("FramesTotal = %d", want.FramesTotal)
	}
}

// lockstepSource releases frame k+1 only after the consumer observed
// frame k, and reports through Depth whether the next frame is there: a
// live feed that has nothing buffered until the pipeline drains.
type lockstepSource struct {
	frames   []*video.Frame
	next     int
	released chan struct{} // one token per frame that has arrived
}

func (s *lockstepSource) Next() (*video.Frame, bool) {
	if s.next >= len(s.frames) {
		return nil, false
	}
	<-s.released
	s.next++
	return s.frames[s.next-1], true
}

func (s *lockstepSource) Depth() int { return len(s.released) }

// A chunk never waits for a frame that has not arrived: with a chunk cap
// of 8 over a source whose next frame only arrives once the last one was
// confirmed, each chunk must close on the frames the source holds instead
// of blocking for batch-mates — the ChunkSize=1 latency contract at any
// chunk size.
func TestRunStreamChunkNeverWaits(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1`), p)
	frames := video.NewStream(p, 19).Take(40)
	src := &lockstepSource{frames: frames, released: make(chan struct{}, len(frames)+1)}
	src.released <- struct{}{}
	eng := &Engine{
		Backend:   filters.NewODFilter(p, 19, nil),
		Detector:  detect.NewOracle(nil),
		Tol:       Tolerances{Count: 1},
		ChunkSize: 8,
		Observe:   func(FrameObservation) { src.released <- struct{}{} },
	}
	done := make(chan *Result, 1)
	go func() { done <- eng.RunStream(plan, src, len(frames)) }()
	select {
	case got := <-done:
		want := (&Engine{Backend: filters.NewODFilter(p, 19, nil), Detector: detect.NewOracle(nil), Tol: Tolerances{Count: 1}}).
			RunSequential(plan, frames)
		requireSameResult(t, "lockstep", got, want)
	case <-time.After(10 * time.Second):
		t.Fatal("RunStream blocked waiting for a frame that had not arrived")
	}
}

// A detector whose randomness is call-order sensitive (SimYOLO) still
// produces sequential-identical results: the confirmation stage always
// runs in frame order on one goroutine.
func TestRunStreamOrderSensitiveDetector(t *testing.T) {
	p := video.Detrac()
	plan := MustBind(parse(t, `SELECT FRAMES FROM detrac WHERE COUNT(car) >= 2`), p)
	frames := video.NewStream(p, 13).Take(600)
	tol := Tolerances{Count: 1}
	seq := (&Engine{Backend: filters.NewODFilter(p, 13, nil), Detector: detect.NewSimYOLO(nil, 99), Tol: tol}).
		RunSequential(plan, frames)
	str := (&Engine{Backend: filters.NewODFilter(p, 13, nil), Detector: detect.NewSimYOLO(nil, 99), Tol: tol}).
		RunStream(plan, &stream.SliceSource{Frames: frames}, len(frames))
	requireSameResult(t, "SimYOLO", str, seq)
	if seq.DetectorCalls == 0 {
		t.Fatal("degenerate case: detector never ran")
	}
}

// A source shorter than the requested frame budget ends the query
// gracefully: no panic, and FramesTotal reports the frames actually seen.
func TestRunStreamShortSource(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1`), p)
	frames := video.NewStream(p, 5).Take(100)
	eng := &Engine{Backend: filters.NewODFilter(p, 5, nil), Detector: detect.NewOracle(nil)}
	res := eng.RunStream(plan, &stream.SliceSource{Frames: frames}, 100000)
	want := (&Engine{Backend: filters.NewODFilter(p, 5, nil), Detector: detect.NewOracle(nil)}).
		RunSequential(plan, frames)
	requireSameResult(t, "short source", res, want)
	if res.FramesTotal != 100 {
		t.Fatalf("FramesTotal = %d, want 100", res.FramesTotal)
	}
	// n <= 0 is an empty query, not a hang.
	empty := eng.RunStream(plan, &stream.SliceSource{}, 0)
	if empty.FramesTotal != 0 || len(empty.Matched) != 0 {
		t.Fatalf("n=0 result = %+v", empty)
	}
}

// The streaming path charges the shared virtual clock exactly like the
// sequential path: one filter charge per frame, one detector charge per
// confirmation, regardless of worker fan-out and batching.
func TestRunStreamClockAccounting(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), p)
	const n = 500
	clk := simclock.New()
	eng := &Engine{Backend: filters.NewODFilter(p, 3, clk), Detector: detect.NewOracle(clk), Tol: Tolerances{Count: 1}}
	res := eng.RunStream(plan, stream.FromStream(video.NewStream(p, 3)), n)
	if got := clk.Calls("od-filter"); got != n {
		t.Fatalf("filter charges = %d, want %d", got, n)
	}
	if got := clk.Calls("mask-rcnn"); got != int64(res.DetectorCalls) {
		t.Fatalf("detector charges = %d, want %d", got, res.DetectorCalls)
	}
	if clk.Elapsed() != res.VirtualTime {
		t.Fatalf("clock %v != result virtual time %v", clk.Elapsed(), res.VirtualTime)
	}
}

// A trained-style backend that is not concurrency-safe must be driven by
// a single filter worker, in frame order.
type orderRecordingBackend struct {
	filters.Backend
	order []int
}

func (o *orderRecordingBackend) Evaluate(f *video.Frame) *filters.Output {
	o.order = append(o.order, f.Index) // would race if fanned out
	return o.Backend.Evaluate(f)
}

func TestRunStreamSingleWorkerForUnsafeBackend(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), p)
	frames := video.NewStream(p, 8).Take(200)
	rec := &orderRecordingBackend{Backend: filters.NewODFilter(p, 8, nil)}
	if filters.ConcurrentSafe(rec) {
		t.Fatal("wrapper must not inherit concurrency safety")
	}
	eng := &Engine{Backend: rec, Detector: detect.NewOracle(nil), Tol: Tolerances{Count: 1}}
	res := eng.RunStream(plan, &stream.SliceSource{Frames: frames}, len(frames))
	if len(rec.order) != len(frames) {
		t.Fatalf("backend saw %d frames, want %d", len(rec.order), len(frames))
	}
	for i, idx := range rec.order {
		if idx != frames[i].Index {
			t.Fatalf("out-of-order evaluation at position %d: frame %d", i, idx)
		}
	}
	want := (&Engine{Backend: filters.NewODFilter(p, 8, nil), Detector: detect.NewOracle(nil), Tol: Tolerances{Count: 1}}).
		RunSequential(plan, frames)
	requireSameResult(t, "unsafe backend", res, want)
}

// The Observe hook fires once per frame, in frame order, on both
// executors, and its Passed/Matched flags reconcile exactly with the
// returned Result — the contract the continuous-query server's event
// stream depends on.
func TestEngineObserveHook(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), p)
	frames := video.NewStream(p, 21).Take(300)
	run := func(label string, exec func(e *Engine) *Result) {
		var obs []FrameObservation
		eng := &Engine{
			Backend:  filters.NewODFilter(p, 21, nil),
			Detector: detect.NewOracle(nil),
			Tol:      Tolerances{Count: 1},
			Observe:  func(o FrameObservation) { obs = append(obs, o) },
		}
		res := exec(eng)
		if len(obs) != res.FramesTotal {
			t.Fatalf("%s: %d observations for %d frames", label, len(obs), res.FramesTotal)
		}
		var matched []int
		passed := 0
		for i, o := range obs {
			if o.Index != i {
				t.Fatalf("%s: observation %d carries index %d", label, i, o.Index)
			}
			if o.Frame != frames[i] {
				t.Fatalf("%s: observation %d carries the wrong frame", label, i)
			}
			if o.Matched && !o.Passed {
				t.Fatalf("%s: frame %d matched without passing the filter", label, i)
			}
			if o.Passed {
				passed++
			}
			if o.Matched {
				matched = append(matched, i)
			}
		}
		if passed != res.FilterPassed {
			t.Fatalf("%s: observed %d passes, result says %d", label, passed, res.FilterPassed)
		}
		if !reflect.DeepEqual(matched, res.Matched) {
			t.Fatalf("%s: observed matches %v, result says %v", label, matched, res.Matched)
		}
		if len(matched) == 0 {
			t.Fatalf("%s: degenerate case, nothing matched", label)
		}
	}
	run("sequential", func(e *Engine) *Result { return e.RunSequential(plan, frames) })
	run("stream", func(e *Engine) *Result {
		return e.RunStream(plan, &stream.SliceSource{Frames: frames}, len(frames))
	})
}

// RunWindows on an exhausted source returns the completed windows'
// estimates plus a typed error, instead of panicking mid-window.
func TestRunWindowsExhaustedSource(t *testing.T) {
	p := video.Jackson()
	plan := MustBind(parse(t, `SELECT COUNT(FRAMES) FROM jackson
		WHERE COUNT(car) >= 1
		WINDOW HOPPING (SIZE 200, ADVANCE BY 200)`), p)
	frames := video.NewStream(p, 41).Take(500) // 2.5 windows
	src := &stream.SliceSource{Frames: frames}
	results, err := RunWindows(plan, src, filters.NewODFilter(p, 41, nil), detect.NewOracle(nil), 5,
		AggregateConfig{SampleSize: 40, Sampler: stream.NewUniformSampler(2), MuFromFullWindow: true})
	if !errors.Is(err, stream.ErrExhausted) {
		t.Fatalf("error = %v, want ErrExhausted", err)
	}
	if len(results) != 2 {
		t.Fatalf("completed window estimates = %d, want 2", len(results))
	}
	for i, r := range results {
		if r.WindowSize != 200 {
			t.Fatalf("window %d size = %d", i, r.WindowSize)
		}
	}
}
