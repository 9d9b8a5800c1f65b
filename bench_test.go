// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment harness at
// a benchmark-friendly scale and reports domain-specific metrics alongside
// ns/op; run the cmd/vmq binary ("vmq experiment -name all -frames 0") for
// the full paper-scale output recorded in EXPERIMENTS.md.
package vmq_test

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"vmq/internal/detect"
	"vmq/internal/experiments"
	"vmq/internal/filters"
	"vmq/internal/grid"
	"vmq/internal/query"
	"vmq/internal/rlog"
	"vmq/internal/server"
	"vmq/internal/stream"
	"vmq/internal/tensor"
	"vmq/internal/video"
	"vmq/internal/vql"
)

// benchConfig keeps a single iteration around a second of CPU.
func benchConfig() experiments.Config {
	return experiments.Config{Frames: 1000, Seed: 20, Repetitions: 3}
}

// BenchmarkTableII regenerates Table II (dataset characteristics).
func BenchmarkTableII(b *testing.B) {
	var rows []experiments.TableIIRow
	for i := 0; i < b.N; i++ {
		rows = experiments.TableII(benchConfig())
	}
	b.StopTimer()
	r := rows[2] // detrac, the densest stream
	b.ReportMetric(r.MeasuredMean, "obj/frame")
	b.ReportMetric(r.MeasuredStd, "std")
}

// BenchmarkFigure7 regenerates Figure 7 (count-filter accuracy).
func BenchmarkFigure7(b *testing.B) {
	var rows []experiments.Figure7Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure7(benchConfig())
	}
	b.StopTimer()
	for _, r := range rows {
		if r.Dataset == "detrac" && r.Filter == "OD-CF" {
			b.ReportMetric(r.Exact, "detrac-ODCF-exact")
			b.ReportMetric(r.Within2, "detrac-ODCF-±2")
		}
	}
}

// BenchmarkFigure11 regenerates Figures 8–10 (per-class CCF accuracy).
func BenchmarkFigure11(b *testing.B) {
	var rows []experiments.Figure11Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure11(benchConfig())
	}
	b.StopTimer()
	for _, r := range rows {
		if r.Dataset == "jackson" && r.Filter == "IC-CCF" && r.Class == "car" {
			b.ReportMetric(r.Exact, "jackson-ICCCF-car-exact")
		}
	}
}

// BenchmarkFigure15 regenerates Figures 12–14 (per-class CLF f1).
func BenchmarkFigure15(b *testing.B) {
	var rows []experiments.Figure15Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure15(benchConfig())
	}
	b.StopTimer()
	for _, r := range rows {
		if r.Dataset == "detrac" && r.Class == "car" {
			b.ReportMetric(r.F1, r.Filter+"-f1")
		}
	}
}

// BenchmarkTableIII regenerates Table III (q1–q7 cascade execution).
func BenchmarkTableIII(b *testing.B) {
	var rows []experiments.TableIIIRow
	for i := 0; i < b.N; i++ {
		rows = experiments.TableIII(benchConfig())
	}
	b.StopTimer()
	var minSpeedup, minAcc = 1e9, 1.0
	for _, r := range rows {
		if r.Speedup < minSpeedup {
			minSpeedup = r.Speedup
		}
		if r.Accuracy < minAcc {
			minAcc = r.Accuracy
		}
	}
	b.ReportMetric(minSpeedup, "min-speedup-x")
	b.ReportMetric(minAcc, "min-accuracy")
}

// BenchmarkTableIV regenerates Table IV (aggregate CV variance reduction).
func BenchmarkTableIV(b *testing.B) {
	var rows []experiments.TableIVRow
	for i := 0; i < b.N; i++ {
		rows = experiments.TableIV(benchConfig())
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.MeanReduction, r.Query+"-varRed-x")
	}
}

// BenchmarkTableIVHighFidelity runs the control-variate ablation with the
// near-saturation filter calibration, showing paper-scale reductions.
func BenchmarkTableIVHighFidelity(b *testing.B) {
	var rows []experiments.TableIVRow
	for i := 0; i < b.N; i++ {
		rows = experiments.TableIVHighFidelity(benchConfig())
	}
	b.StopTimer()
	var maxRed float64
	for _, r := range rows {
		if r.MeanReduction > maxRed {
			maxRed = r.MeanReduction
		}
	}
	b.ReportMetric(maxRed, "max-varRed-x")
}

// BenchmarkPlanner runs the automatic filter-selection optimizer across
// q1–q7 (the paper's future-work direction).
func BenchmarkPlanner(b *testing.B) {
	var rows []experiments.PlannerRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Planner(benchConfig())
	}
	b.StopTimer()
	var minAcc = 1.0
	for _, r := range rows {
		if r.Accuracy < minAcc {
			minAcc = r.Accuracy
		}
	}
	b.ReportMetric(minAcc, "min-accuracy")
}

// BenchmarkConstraintAccuracy regenerates the Section IV-A constraint
// comparison (paper: 99 % agreement).
func BenchmarkConstraintAccuracy(b *testing.B) {
	var r experiments.ConstraintAccuracyResult
	for i := 0; i < b.N; i++ {
		r = experiments.ConstraintAccuracy(benchConfig())
	}
	b.StopTimer()
	b.ReportMetric(r.Agreement, "agreement")
}

// BenchmarkBranchTradeoff runs the branch-placement ablation (grid
// 56/28/14) the paper discusses in Section IV.
func BenchmarkBranchTradeoff(b *testing.B) {
	var rows []experiments.BranchTradeoffRow
	for i := 0; i < b.N; i++ {
		rows = experiments.BranchTradeoff(benchConfig())
	}
	b.StopTimer()
	for _, r := range rows {
		switch r.GridSize {
		case 56:
			b.ReportMetric(r.SpatialF1, "g56-f1")
		case 14:
			b.ReportMetric(r.SpatialF1, "g14-f1")
		}
	}
}

// BenchmarkUnexpectedObjects runs the anomaly-flagging experiment from the
// evaluation introduction.
func BenchmarkUnexpectedObjects(b *testing.B) {
	var r experiments.UnexpectedObjectsResult
	for i := 0; i < b.N; i++ {
		r = experiments.UnexpectedObjects(benchConfig())
	}
	b.StopTimer()
	b.ReportMetric(r.Recall, "recall")
}

// --- Engine benchmarks: sequential loop vs pipelined streaming executor ---

// benchEngineSetup prepares the workload both engine benchmarks share: a
// dense Detrac clip under a spatial query, so the per-frame filter
// evaluation (count heads plus 56x56 location maps) dominates and the
// pipelined executor's worker-pool fan-out has real work to parallelise.
func benchEngineSetup(b *testing.B) (*query.Plan, []*video.Frame, func() *query.Engine) {
	b.Helper()
	p := video.Detrac()
	q, err := vql.Parse(`SELECT FRAMES FROM detrac
		WHERE COUNT(bus) >= 1 AND bus IN QUADRANT(UPPER LEFT)`)
	if err != nil {
		b.Fatal(err)
	}
	plan := query.MustBind(q, p)
	frames := video.NewStream(p, 9).Take(2000)
	mk := func() *query.Engine {
		return &query.Engine{
			Backend:  filters.NewODFilter(p, 9, nil),
			Detector: detect.NewOracle(nil),
			Tol:      query.Tolerances{Count: 1, Location: 1},
		}
	}
	return plan, frames, mk
}

// BenchmarkRunSequential is the single-threaded reference loop.
func BenchmarkRunSequential(b *testing.B) {
	plan, frames, mk := benchEngineSetup(b)
	eng := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunSequential(plan, frames)
	}
	b.ReportMetric(float64(len(frames))*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkRunStream is the pipelined executor over the same workload;
// run with -cpu 1,2,4 to see the filter fan-out scale. Results are
// identical to the sequential loop (TestRunStreamMatchesSequential); on
// >= 2 cores the wall clock should be measurably lower.
func BenchmarkRunStream(b *testing.B) {
	plan, frames, mk := benchEngineSetup(b)
	eng := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunStream(plan, &stream.SliceSource{Frames: frames}, len(frames))
	}
	b.ReportMetric(float64(len(frames))*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// --- Trained-backend benchmarks: batched vs per-frame inference path ---

// benchTrainedSetup builds the real-CNN workload: an untrained OD branch
// network (random weights exercise the same kernels as trained ones) over
// a Jackson clip under a count query.
func benchTrainedSetup(b *testing.B) (*query.Plan, []*video.Frame, *filters.Trained) {
	b.Helper()
	p := video.Jackson()
	q, err := vql.Parse(`SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1`)
	if err != nil {
		b.Fatal(err)
	}
	plan := query.MustBind(q, p)
	frames := video.NewStream(p, 17).Take(256)
	backend := filters.NewUntrained(filters.OD, p, filters.TrainedConfig{Img: 48, Channels: 16, Seed: 17}, nil)
	return plan, frames, backend
}

// perFrameTrained reproduces the pre-batching inference path — rasterise
// one frame, run the naive per-frame Forward, build the Output — hiding
// the backend's BatchBackend implementation from the engine. It is the
// baseline BenchmarkRunStreamBatched is measured against.
type perFrameTrained struct {
	inner   *filters.Trained
	classes []video.Class
}

func newPerFrameTrained(inner *filters.Trained, p video.Profile) *perFrameTrained {
	t := &perFrameTrained{inner: inner}
	for _, cm := range p.Classes {
		t.classes = append(t.classes, cm.Class)
	}
	return t
}

func (t *perFrameTrained) Technique() filters.Technique { return t.inner.Technique() }
func (t *perFrameTrained) Grid() int                    { return t.inner.Grid() }

func (t *perFrameTrained) Evaluate(f *video.Frame) *filters.Output {
	img := video.Render(f, t.inner.Img, t.inner.Img, t.inner.NoiseSeed)
	counts, maps := t.inner.Net.Forward(img)
	out := &filters.Output{}
	g := t.inner.Net.Grid()
	plane := g * g
	for ci, cls := range t.classes {
		v := float64(counts.Data[ci])
		out.Counts[cls] = v
		out.Total += v
		gm := grid.NewMap(g)
		copy(gm.Cells, maps.Data[ci*plane:(ci+1)*plane])
		out.Maps[cls] = gm.Threshold(t.inner.Threshold)
	}
	return out
}

// BenchmarkRunStreamBatched runs the pipelined executor with the trained
// backend's native batch path: each 32-frame chunk is rasterised into one
// NCHW batch and pushed through one GEMM per layer on the reusable arena.
func BenchmarkRunStreamBatched(b *testing.B) {
	plan, frames, backend := benchTrainedSetup(b)
	eng := &query.Engine{Backend: backend, Detector: detect.NewOracle(nil), Tol: query.Tolerances{Count: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunStream(plan, &stream.SliceSource{Frames: frames}, len(frames))
	}
	b.ReportMetric(float64(len(frames))*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// BenchmarkRunStreamTrainedPerFrame is the pre-batching baseline: the
// same executor and workload, but every frame takes the naive per-frame
// forward with fresh allocations at each layer.
func BenchmarkRunStreamTrainedPerFrame(b *testing.B) {
	plan, frames, backend := benchTrainedSetup(b)
	p := video.Jackson()
	eng := &query.Engine{
		Backend:  newPerFrameTrained(backend, p),
		Detector: detect.NewOracle(nil),
		Tol:      query.Tolerances{Count: 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunStream(plan, &stream.SliceSource{Frames: frames}, len(frames))
	}
	b.ReportMetric(float64(len(frames))*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// --- Server benchmarks: shared-scan fan-out vs independent queries ---

// benchServerQueries is the standing-query fleet both fan-out benchmarks
// run: the same predicate registered nQueries times over one 512-frame
// Jackson clip.
const benchServerQueries = 8

func benchServerClip(b *testing.B) (video.Profile, []*video.Frame, *query.Plan) {
	b.Helper()
	p := video.Jackson()
	q, err := vql.Parse(`SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`)
	if err != nil {
		b.Fatal(err)
	}
	return p, video.NewStream(p, 15).Take(512), query.MustBind(q, p)
}

// benchCountingBackend counts true filter evaluations.
type benchCountingBackend struct {
	filters.Backend
	mu    sync.Mutex
	calls int
}

func (c *benchCountingBackend) Evaluate(f *video.Frame) *filters.Output {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.Backend.Evaluate(f)
}

func (c *benchCountingBackend) ConcurrentSafe() bool { return filters.ConcurrentSafe(c.Backend) }

// BenchmarkServerFanout runs benchServerQueries identical queries through
// the continuous-query server's shared-scan schedule: the feed is decoded
// once and the filter backend evaluated once per frame for the whole
// fleet. The backend-evals/frame metric should sit at ~1.0 — 1/N the
// invocations of the independent baseline below — while every query's
// results stay identical to a standalone run (enforced by test).
func BenchmarkServerFanout(b *testing.B) {
	p, frames, _ := benchServerClip(b)
	totalEvals := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counting := &benchCountingBackend{Backend: filters.NewODFilter(p, 15, nil)}
		srv := server.New(server.Config{})
		if err := srv.AddFeed(server.FeedConfig{
			Name: p.Name, Profile: p,
			Source:  &stream.SliceSource{Frames: frames},
			Backend: counting,
		}); err != nil {
			b.Fatal(err)
		}
		regs := make([]*server.Registration, benchServerQueries)
		for j := range regs {
			q, _ := vql.Parse(`SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`)
			reg, err := srv.Register(q, server.Options{})
			if err != nil {
				b.Fatal(err)
			}
			regs[j] = reg
		}
		srv.Start()
		var wg sync.WaitGroup
		for _, reg := range regs {
			wg.Add(1)
			go func(reg *server.Registration) {
				defer wg.Done()
				for range reg.Results() {
				}
			}(reg)
		}
		wg.Wait()
		srv.Close()
		totalEvals += counting.calls
	}
	b.ReportMetric(float64(totalEvals)/float64(b.N*len(frames)), "backend-evals/frame")
	b.ReportMetric(float64(len(frames)*benchServerQueries)*float64(b.N)/b.Elapsed().Seconds(), "query-frames/s")
}

// BenchmarkServerFanoutIndependent is the baseline the shared scan is
// measured against: the same fleet of queries each running a standalone
// RunStream over the clip, so the filter backend is evaluated N times per
// frame.
func BenchmarkServerFanoutIndependent(b *testing.B) {
	p, frames, plan := benchServerClip(b)
	totalEvals := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counting := &benchCountingBackend{Backend: filters.NewODFilter(p, 15, nil)}
		var wg sync.WaitGroup
		for j := 0; j < benchServerQueries; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				eng := &query.Engine{
					Backend:  counting,
					Detector: detect.NewOracle(nil),
					Tol:      query.Tolerances{Count: 1, Location: 1},
				}
				eng.RunStream(plan, &stream.SliceSource{Frames: frames}, len(frames))
			}()
		}
		wg.Wait()
		totalEvals += counting.calls
	}
	b.ReportMetric(float64(totalEvals)/float64(b.N*len(frames)), "backend-evals/frame")
	b.ReportMetric(float64(len(frames)*benchServerQueries)*float64(b.N)/b.Elapsed().Seconds(), "query-frames/s")
}

// --- Server benchmarks: cross-feed inference coalescing ---

// benchGEMMCounter counts true batch evaluations (one GEMM sequence per
// call for a trained backend) while forwarding the coalescing identity,
// so wrapped backends still merge across feeds.
type benchGEMMCounter struct {
	filters.Coalescable
	calls *atomic.Int64 // shared across the fleet
}

func (c *benchGEMMCounter) EvaluateBatch(frames []*video.Frame, dst []*filters.Output) []*filters.Output {
	c.calls.Add(1)
	return c.Coalescable.EvaluateBatch(frames, dst)
}

func (c *benchGEMMCounter) Evaluate(f *video.Frame) *filters.Output {
	var out [1]*filters.Output
	return c.EvaluateBatch([]*video.Frame{f}, out[:0])[0]
}

// benchCoalesceFleet is the many-sparse-feeds workload of the cross-feed
// broker benchmarks: benchCoalesceFeeds bounded feeds, each serving the
// same trained OD architecture (separate instances, identical weights —
// the fingerprint coalescing matches on) with one standing query, whose
// executor submits chunks of at most 8 frames — the sparse regime where
// per-feed batching degenerates to small GEMMs. Clips are
// longer than the fan-out buffer so feeds genuinely overlap (broker
// membership is taken at first submission; a clip that fits one buffer
// can drain solo before the next feed starts).
const (
	benchCoalesceFeeds  = 16
	benchCoalesceFrames = 192
)

func benchCoalesceFleet(b *testing.B, cfg server.Config) (framesPerSec, gemmCalls float64) {
	b.Helper()
	base := video.Jackson()
	clips := make([][]*video.Frame, benchCoalesceFeeds)
	for i := range clips {
		clips[i] = video.NewStream(base, uint64(300+i)).Take(benchCoalesceFrames)
	}
	tcfg := filters.TrainedConfig{Img: 32, Channels: 16, Seed: 13}
	var calls atomic.Int64
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		srv := server.New(cfg)
		for i := range clips {
			p := base
			p.Name = base.Name + strconv.Itoa(i)
			if err := srv.AddFeed(server.FeedConfig{
				Name: p.Name, Profile: p,
				Source:  &stream.SliceSource{Frames: clips[i]},
				Backend: &benchGEMMCounter{Coalescable: filters.NewUntrained(filters.OD, base, tcfg, nil), calls: &calls},
			}); err != nil {
				b.Fatal(err)
			}
		}
		regs := make([]*server.Registration, benchCoalesceFeeds)
		for i := range regs {
			q, err := vql.Parse(`SELECT FRAMES FROM jackson` + strconv.Itoa(i) + ` WHERE COUNT(car) = 1`)
			if err != nil {
				b.Fatal(err)
			}
			if regs[i], err = srv.Register(q, server.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		srv.Start()
		var wg sync.WaitGroup
		for _, reg := range regs {
			wg.Add(1)
			go func(reg *server.Registration) {
				defer wg.Done()
				for range reg.Results() {
				}
			}(reg)
		}
		wg.Wait()
		srv.Close()
	}
	total := float64(benchCoalesceFeeds * benchCoalesceFrames * b.N)
	return total / b.Elapsed().Seconds(), float64(calls.Load()) / total
}

// BenchmarkServerCoalescedScan is the full coalesced path: the cross-feed
// broker merges the fleet's small chunks into one large GEMM per
// size-or-deadline window, on the auto-dispatched (AVX2 where available)
// kernels. Compare gemm-calls/frame against the per-feed baselines: 16
// sparse feeds drop from one small GEMM dispatch per chunk each to a
// shared ~1/32-per-frame dispatch, and frames/s rises accordingly.
func BenchmarkServerCoalescedScan(b *testing.B) {
	fps, calls := benchCoalesceFleet(b, server.Config{})
	b.ReportMetric(fps, "frames/s")
	b.ReportMetric(calls, "gemm-calls/frame")
}

// BenchmarkServerPerFeedScan disables only the broker (CoalesceBatch 1):
// every feed's query dispatches its own chunks, but still on
// the auto-dispatched kernels. The delta against BenchmarkServerCoalescedScan
// isolates what cross-feed coalescing itself buys.
func BenchmarkServerPerFeedScan(b *testing.B) {
	fps, calls := benchCoalesceFleet(b, server.Config{CoalesceBatch: 1})
	b.ReportMetric(fps, "frames/s")
	b.ReportMetric(calls, "gemm-calls/frame")
}

// BenchmarkServerPerFeedScanSSE pins the pre-PR system end to end:
// per-feed chunks on the SSE-baseline kernel (the amd64 default
// before runtime AVX2 dispatch landed). This is the configuration the
// coalesced scan's headline speedup is measured against.
func BenchmarkServerPerFeedScanSSE(b *testing.B) {
	prev := tensor.Kernel()
	if err := tensor.SetKernel("sse"); err != nil {
		b.Skipf("SSE kernel unavailable: %v", err)
	}
	defer tensor.SetKernel(prev)
	fps, calls := benchCoalesceFleet(b, server.Config{CoalesceBatch: 1})
	b.ReportMetric(fps, "frames/s")
	b.ReportMetric(calls, "gemm-calls/frame")
}

// --- Server benchmarks: result delivery under consumer pressure ---

// benchDeliveryFleet serves one feed to benchDeliveryQueries match-heavy
// queries (COUNT >= 0: every frame is a match event, the worst delivery
// load). With stall set, one registration is never consumed — the
// scenario that wedged the whole feed under the old lossless channels
// once its buffers filled; under drop-oldest its result log sheds
// instead, and the feed's scan rate must be indistinguishable from the
// all-drained baseline. Returns the feed's frames/s and the events
// dropped per iteration across the fleet (≈0 when everyone drains).
const (
	benchDeliveryQueries = 4
	benchDeliveryFrames  = 1500
)

func benchDeliveryFleet(b *testing.B, stall bool) (framesPerSec, droppedPerOp float64) {
	b.Helper()
	p := video.Jackson()
	frames := video.NewStream(p, 55).Take(benchDeliveryFrames)
	var dropped int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := server.New(server.Config{})
		if err := srv.AddFeed(server.FeedConfig{
			Name: p.Name, Profile: p,
			Source:  &stream.SliceSource{Frames: frames},
			Backend: filters.NewODFilter(p, 55, nil),
		}); err != nil {
			b.Fatal(err)
		}
		regs := make([]*server.Registration, benchDeliveryQueries)
		for j := range regs {
			q, _ := vql.Parse(`SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`)
			var err error
			regs[j], err = srv.Register(q, server.Options{Policy: rlog.DropOldest, ResultBuffer: 32})
			if err != nil {
				b.Fatal(err)
			}
		}
		srv.Start()
		var wg sync.WaitGroup
		for j, reg := range regs {
			if stall && j == 0 {
				continue // deliberately abandoned: no consumer ever attaches
			}
			wg.Add(1)
			go func(reg *server.Registration) {
				defer wg.Done()
				for range reg.Results() {
				}
			}(reg)
		}
		wg.Wait()
		for _, reg := range regs {
			<-reg.Done()
			dropped += reg.Log().Dropped()
		}
		srv.Close()
	}
	return float64(benchDeliveryFrames) * float64(b.N) / b.Elapsed().Seconds(),
		float64(dropped) / float64(b.N)
}

// BenchmarkServerDeliveryDrained is the healthy baseline: every
// consumer keeps up, nothing drops.
func BenchmarkServerDeliveryDrained(b *testing.B) {
	fps, dropped := benchDeliveryFleet(b, false)
	b.ReportMetric(fps, "frames/s")
	b.ReportMetric(dropped, "dropped-events")
}

// BenchmarkServerDeliveryStalledConsumer abandons one of the four
// consumers. The headline check (recorded in README, warned on by
// benchjson -compare): frames/s stays at the drained baseline — the
// stalled query sheds into its own ring instead of back-pressuring the
// shared scan — and dropped-events accounts exactly for what it shed.
func BenchmarkServerDeliveryStalledConsumer(b *testing.B) {
	fps, dropped := benchDeliveryFleet(b, true)
	b.ReportMetric(fps, "frames/s")
	b.ReportMetric(dropped, "dropped-events")
}

// BenchmarkServerAckedConsumer runs the delivery fleet with every
// consumer in exactly-once mode: block-policy logs, and each event is
// acknowledged as it is read, so the retention floor tracks the acked
// position the whole run. This prices the ack path (a lock, a floor
// recompute, a possible writer wake) against the fire-and-forget
// drained baseline; nothing may drop.
func BenchmarkServerAckedConsumer(b *testing.B) {
	p := video.Jackson()
	frames := video.NewStream(p, 55).Take(benchDeliveryFrames)
	var dropped, acked int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := server.New(server.Config{})
		if err := srv.AddFeed(server.FeedConfig{
			Name: p.Name, Profile: p,
			Source:  &stream.SliceSource{Frames: frames},
			Backend: filters.NewODFilter(p, 55, nil),
		}); err != nil {
			b.Fatal(err)
		}
		regs := make([]*server.Registration, benchDeliveryQueries)
		for j := range regs {
			q, _ := vql.Parse(`SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`)
			var err error
			regs[j], err = srv.Register(q, server.Options{Policy: rlog.Block, ResultBuffer: 32})
			if err != nil {
				b.Fatal(err)
			}
		}
		srv.Start()
		var wg sync.WaitGroup
		for _, reg := range regs {
			wg.Add(1)
			go func(reg *server.Registration) {
				defer wg.Done()
				r := reg.ResultsFrom(0)
				defer r.Detach()
				for {
					it, ok := r.Next(nil)
					if !ok {
						return
					}
					r.Ack(it.Seq)
				}
			}(reg)
		}
		wg.Wait()
		for _, reg := range regs {
			<-reg.Done()
			dropped += reg.Log().Dropped()
			acked += reg.Log().AckedSeq() + 1
		}
		srv.Close()
	}
	b.ReportMetric(float64(benchDeliveryFrames)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	b.ReportMetric(float64(dropped)/float64(b.N), "dropped-events")
	b.ReportMetric(float64(acked)/float64(b.N), "acked-events")
}

// benchIngestFleet serves one feed to benchDeliveryQueries queries,
// either file-decoded (the SliceSource path every recorded-clip feed
// uses) or fed the same frames through the push-ingestion bridge's ring.
// The pair bounds the bridge's overhead: PushIngest must stay within 20%
// of FileIngest, or admission control is taxing the scan it feeds.
func benchIngestFleet(b *testing.B, pushFed bool) (framesPerSec, ingestDroppedPerOp float64) {
	b.Helper()
	p := video.Jackson()
	frames := video.NewStream(p, 55).Take(benchDeliveryFrames)
	var dropped int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := server.New(server.Config{})
		cfg := server.FeedConfig{
			Name: p.Name, Profile: p,
			Backend: filters.NewODFilter(p, 55, nil),
		}
		var push *stream.PushSource
		if pushFed {
			push = stream.NewPushSource(256, stream.PushBlock)
			cfg.Source = push
		} else {
			cfg.Source = &stream.SliceSource{Frames: frames}
		}
		if err := srv.AddFeed(cfg); err != nil {
			b.Fatal(err)
		}
		regs := make([]*server.Registration, benchDeliveryQueries)
		for j := range regs {
			q, _ := vql.Parse(`SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`)
			var err error
			regs[j], err = srv.Register(q, server.Options{Policy: rlog.DropOldest, ResultBuffer: 32})
			if err != nil {
				b.Fatal(err)
			}
		}
		srv.Start()
		if pushFed {
			go func() {
				for _, f := range frames {
					if err := push.Publish(f, nil); err != nil {
						return
					}
				}
				push.Close()
			}()
		}
		var wg sync.WaitGroup
		for _, reg := range regs {
			wg.Add(1)
			go func(reg *server.Registration) {
				defer wg.Done()
				for range reg.Results() {
				}
			}(reg)
		}
		wg.Wait()
		if pushFed {
			dropped += push.Dropped()
		}
		srv.Close()
	}
	return float64(benchDeliveryFrames) * float64(b.N) / b.Elapsed().Seconds(),
		float64(dropped) / float64(b.N)
}

// BenchmarkServerFileIngest is the file-decoded baseline for the push
// bridge comparison.
func BenchmarkServerFileIngest(b *testing.B) {
	fps, dropped := benchIngestFleet(b, false)
	b.ReportMetric(fps, "frames/s")
	b.ReportMetric(dropped, "ingest-dropped")
}

// BenchmarkServerPushIngest drives the same clip through a block-policy
// ingest ring. The headline check (benchjson -compare warns on it):
// frames/s within 20% of BenchmarkServerFileIngest and ingest-dropped
// stays 0 — the block policy is lossless.
func BenchmarkServerPushIngest(b *testing.B) {
	fps, dropped := benchIngestFleet(b, true)
	b.ReportMetric(fps, "frames/s")
	b.ReportMetric(dropped, "ingest-dropped")
}

// --- Micro-benchmarks: per-operation costs of the building blocks ---

// BenchmarkFilterEvaluateOD measures one OD filter forward pass
// (calibrated backend) on a dense Detrac frame.
func BenchmarkFilterEvaluateOD(b *testing.B) {
	p := video.Detrac()
	backend := filters.NewODFilter(p, 1, nil)
	f := video.NewStream(p, 2).Next()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		backend.Evaluate(f)
	}
}

// BenchmarkFilterEvaluateIC measures one IC filter forward pass.
func BenchmarkFilterEvaluateIC(b *testing.B) {
	p := video.Detrac()
	backend := filters.NewICFilter(p, 1, nil)
	f := video.NewStream(p, 2).Next()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		backend.Evaluate(f)
	}
}

// BenchmarkCascadeFrame measures the full per-frame cascade decision
// (filter evaluate + predicate check) for a q5-style spatial query.
func BenchmarkCascadeFrame(b *testing.B) {
	p := video.Jackson()
	q, err := vql.Parse(`SELECT FRAMES FROM jackson
		WHERE COUNT(car) = 1 AND COUNT(person) = 1 AND car LEFT OF person`)
	if err != nil {
		b.Fatal(err)
	}
	plan := query.MustBind(q, p)
	backend := filters.NewODFilter(p, 1, nil)
	frames := video.NewStream(p, 3).Take(256)
	tol := query.Tolerances{Location: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := frames[i%len(frames)]
		out := backend.Evaluate(f)
		_ = plan.Where.EvalFilter(out, f.Bounds, tol)
	}
}

// BenchmarkOracleDetect measures the Mask R-CNN stand-in (ground-truth
// copy; its 200 ms cost is virtual).
func BenchmarkOracleDetect(b *testing.B) {
	p := video.Detrac()
	o := detect.NewOracle(nil)
	f := video.NewStream(p, 4).Next()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Detect(f)
	}
}

// BenchmarkParse measures VQL parsing throughput.
func BenchmarkParse(b *testing.B) {
	src := `SELECT COUNT(FRAMES) FROM detrac
		WHERE COUNT(*) = 3 AND car IN QUADRANT(LOWER LEFT) AND bus IN QUADRANT(UPPER LEFT)
		WINDOW HOPPING (SIZE 5000, ADVANCE BY 5000)`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vql.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamNext measures synthetic frame generation.
func BenchmarkStreamNext(b *testing.B) {
	s := video.NewStream(video.Detrac(), 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}

// BenchmarkRender measures frame rasterisation at the trained-backend
// resolution.
func BenchmarkRender(b *testing.B) {
	s := video.NewStream(video.Jackson(), 6)
	f := s.Next()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		video.Render(f, 48, 48, 1)
	}
}

// BenchmarkRenderBatch rasterises a 32-frame window into one batch
// tensor through the rasteriser's bounded worker pool, sized to
// GOMAXPROCS — so a -cpu 2,4,8 sweep shows the kernel-dispatched
// rasteriser scaling across cores. Output is bitwise identical at every
// worker count (each frame owns a disjoint slab and its own PCG noise
// stream), so the sweep measures pure wall-clock.
func BenchmarkRenderBatch(b *testing.B) {
	frames := video.NewStream(video.Jackson(), 6).Take(32)
	batch := tensor.New(len(frames), 3, 48, 48)
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		video.RenderBatchInto(batch, frames, 1, workers)
	}
	b.ReportMetric(float64(len(frames))*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}
