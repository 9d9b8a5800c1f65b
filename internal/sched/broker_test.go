package sched

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmq/internal/filters"
	"vmq/internal/video"
)

// countingCoalescable wraps a coalescable backend and counts true batch
// evaluations (= GEMM dispatches for trained backends).
type countingCoalescable struct {
	filters.Coalescable
	calls  atomic.Int64
	frames atomic.Int64
}

func (c *countingCoalescable) EvaluateBatch(frames []*video.Frame, dst []*filters.Output) []*filters.Output {
	c.calls.Add(1)
	c.frames.Add(int64(len(frames)))
	return c.Coalescable.EvaluateBatch(frames, dst)
}

func (c *countingCoalescable) Evaluate(f *video.Frame) *filters.Output {
	var out [1]*filters.Output
	c.EvaluateBatch([]*video.Frame{f}, out[:0])
	return out[0]
}

func newTrained(t testing.TB, seed uint64) *filters.Trained {
	t.Helper()
	p := video.Jackson()
	return filters.NewUntrained(filters.OD, p, filters.TrainedConfig{Img: 16, Channels: 8, Seed: seed}, nil)
}

// Concurrent submissions from many "feeds" sharing one architecture must
// merge into few large evaluations, and every submitter must get outputs
// bit-identical to a standalone evaluation of its own frames.
func TestBrokerCoalescesAcrossSubmitters(t *testing.T) {
	p := video.Jackson()
	const feeds, perFeed = 8, 16
	counting := &countingCoalescable{Coalescable: newTrained(t, 7)}
	br := New(Config{Batch: feeds * 2, Flush: 50 * time.Millisecond})

	backends := make([]filters.Backend, feeds)
	clips := make([][]*video.Frame, feeds)
	for i := range backends {
		if i == 0 {
			backends[i] = br.Wrap(counting) // first member becomes the evaluator
		} else {
			backends[i] = br.Wrap(newTrained(t, 7))
		}
		clips[i] = video.NewStream(p, uint64(100+i)).Take(perFeed)
	}

	// Reference: each feed evaluated standalone through its own backend.
	want := make([][]*filters.Output, feeds)
	for i := range clips {
		want[i] = filters.EvaluateBatch(newTrained(t, 7), clips[i])
	}

	var wg sync.WaitGroup
	got := make([][]*filters.Output, feeds)
	for i := range backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var outs []*filters.Output
			for off := 0; off < perFeed; off += 2 { // sparse: 2 frames per submission
				outs = filters.EvaluateBatchInto(backends[i], clips[i][off:off+2], outs)
			}
			got[i] = outs
		}(i)
	}
	wg.Wait()

	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("feed %d: %d outputs, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			requireSameOutput(t, i, j, got[i][j], want[i][j])
		}
	}

	totalFrames := int64(feeds * perFeed)
	if counting.frames.Load() != totalFrames {
		t.Fatalf("evaluator saw %d frames, want %d", counting.frames.Load(), totalFrames)
	}
	// Per-feed dispatch would be feeds*perFeed/2 = 64 calls; coalescing
	// must do far better. The exact count depends on scheduling (lazy
	// membership means the first submissions flush small while the group
	// ramps up), so assert a conservative bound and that cross-submitter
	// merging happened.
	if calls := counting.calls.Load(); calls > totalFrames/3 {
		t.Fatalf("%d evaluations for %d frames — coalescing not happening", calls, totalFrames)
	}
	ms := br.Metrics()
	if len(ms) != 1 {
		t.Fatalf("one architecture, got %d groups: %+v", len(ms), ms)
	}
	g := ms[0]
	if g.Members != feeds || g.Frames != totalFrames || g.Merged == 0 || g.MaxBatch < 4 {
		t.Fatalf("group metrics %+v: want %d members, %d frames, merged > 0", g, feeds, totalFrames)
	}
}

func requireSameOutput(t *testing.T, feed, j int, got, want *filters.Output) {
	t.Helper()
	if math.Float64bits(got.Total) != math.Float64bits(want.Total) {
		t.Fatalf("feed %d frame %d: total %v vs %v", feed, j, got.Total, want.Total)
	}
	for c := range got.Counts {
		if math.Float64bits(got.Counts[c]) != math.Float64bits(want.Counts[c]) {
			t.Fatalf("feed %d frame %d class %d: count %v vs %v", feed, j, c, got.Counts[c], want.Counts[c])
		}
		gm, wm := got.Maps[c], want.Maps[c]
		if (gm == nil) != (wm == nil) {
			t.Fatalf("feed %d frame %d class %d: map presence differs", feed, j, c)
		}
		if gm != nil {
			for k := range gm.Cells {
				if gm.Cells[k] != wm.Cells[k] {
					t.Fatalf("feed %d frame %d class %d cell %d differs", feed, j, c, k)
				}
			}
		}
	}
}

// A sparse submitter in a multi-member group must not wait for batch-mates
// that never come: the deadline flushes it — after genuinely waiting out
// the flush window, since another live member could still submit.
func TestBrokerDeadlineFlush(t *testing.T) {
	br := New(Config{Batch: 64, Flush: 50 * time.Millisecond})
	a := br.Wrap(newTrained(t, 3))
	b := br.Wrap(newTrained(t, 3))
	frames := video.NewStream(video.Jackson(), 9).Take(3)
	// Warm-up round: both proxies submit concurrently, taking their live
	// memberships (membership is lazy) and flushing via everyone-pending.
	var wg sync.WaitGroup
	for i, be := range []filters.Backend{a, b} {
		wg.Add(1)
		go func(i int, be filters.Backend) {
			defer wg.Done()
			be.Evaluate(frames[i])
		}(i, be)
	}
	wg.Wait()
	// Lone sparse submission with b idle: must wait out the window (b is
	// live and could submit), then deadline-flush rather than hang.
	start := time.Now()
	out := a.Evaluate(frames[2])
	waited := time.Since(start)
	if out == nil {
		t.Fatal("no output")
	}
	if waited < 25*time.Millisecond {
		t.Fatalf("lone submission returned after %v — it cannot have waited for the %v flush window", waited, br.cfg.Flush)
	}
	if waited > 5*time.Second {
		t.Fatalf("lone submission took %v — deadline flush broken", waited)
	}
	ms := br.Metrics()
	if len(ms) != 1 || ms[0].Frames != 3 || ms[0].Live != 2 {
		t.Fatalf("metrics after deadline flush: %+v", ms)
	}
}

// A single-member group must evaluate synchronously — no deadline stall
// for batch-mates that cannot exist — so wrapping a lone feed's backend
// never throttles it.
func TestBrokerSingleMemberNoStall(t *testing.T) {
	br := New(Config{Batch: 64, Flush: time.Hour}) // a deadline wait would hang the test
	b := br.Wrap(newTrained(t, 3))
	frames := video.NewStream(video.Jackson(), 9).Take(24)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var outs []*filters.Output
		for i := 0; i < len(frames); i += 2 {
			outs = filters.EvaluateBatchInto(b, frames[i:i+2], outs[:0])
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("single-member submissions stalled on the coalesce deadline")
	}
	ms := br.Metrics()
	if len(ms) != 1 || ms[0].Frames != 24 || ms[0].Merged != 0 {
		t.Fatalf("metrics after single-member run: %+v", ms)
	}
}

// The size trigger must flush without waiting for the deadline.
func TestBrokerSizeTrigger(t *testing.T) {
	br := New(Config{Batch: 4, Flush: time.Hour}) // deadline effectively disabled
	b := br.Wrap(newTrained(t, 3))
	frames := video.NewStream(video.Jackson(), 9).Take(4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		filters.EvaluateBatch(b, frames)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("size-triggered flush never happened")
	}
}

// Different architectures must form different groups — their frames never
// share a GEMM.
func TestBrokerGroupsByArchitecture(t *testing.T) {
	br := New(Config{Batch: 2, Flush: time.Millisecond})
	a := br.Wrap(newTrained(t, 1))
	b := br.Wrap(newTrained(t, 2))
	if len(br.Metrics()) != 2 {
		t.Fatalf("two architectures should form two groups: %+v", br.Metrics())
	}
	// Non-coalescable backends pass through unchanged.
	cal := filters.NewODFilter(video.Jackson(), 1, nil)
	if br.Wrap(cal) != filters.Backend(cal) {
		t.Fatal("calibrated backend should not be wrapped")
	}
	// Re-wrapping a proxy joins the same group instead of nesting.
	if rewrapped, ok := br.Wrap(a).(*proxy); !ok || rewrapped.group != a.(*proxy).group {
		t.Fatal("re-wrapping must join the existing group")
	}
	_ = b
}

// Hammer the broker from many goroutines under -race: correctness of the
// scatter (each caller gets outputs for exactly its frames, in order).
func TestBrokerScatterOrderUnderLoad(t *testing.T) {
	p := video.Jackson()
	inner := newTrained(t, 5)
	br := New(Config{Batch: 8, Flush: 200 * time.Microsecond})
	const workers = 6
	backends := make([]filters.Backend, workers)
	for i := range backends {
		backends[i] = br.Wrap(newTrained(t, 5))
	}
	clip := video.NewStream(p, 77).Take(60)
	want := filters.EvaluateBatch(inner, clip)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(clip); i += workers {
				out := backends[w].Evaluate(clip[i])
				requireSameOutput(t, w, i, out, want[i])
			}
		}(w)
	}
	wg.Wait()
}

// When a member leaves (its feed's source ended), remaining submitters
// must stop deadline-waiting for it: a 2-member group degrades to the
// synchronous single-member path after one Leave.
func TestBrokerMemberLeave(t *testing.T) {
	br := New(Config{Batch: 64, Flush: time.Hour}) // any deadline wait would hang
	a := br.Wrap(newTrained(t, 3))
	b := br.Wrap(newTrained(t, 3))
	b.(Member).Leave()
	b.(Member).Leave() // idempotent
	frames := video.NewStream(video.Jackson(), 9).Take(8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, f := range frames {
			a.Evaluate(f)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("submissions stalled waiting for a departed member")
	}
	ms := br.Metrics()
	if len(ms) != 1 || ms[0].Members != 2 || ms[0].Live != 1 {
		t.Fatalf("metrics after leave: %+v", ms)
	}
}

// Rotated-out architectures must not pin their evaluator: when a group's
// last proxy departs, the group is removed (weights and scratch become
// collectable) while its counters stay visible, merged per key, in the
// metrics snapshot.
func TestBrokerRetiresAbandonedGroups(t *testing.T) {
	br := New(Config{Batch: 4, Flush: time.Millisecond})
	for round := 0; round < 3; round++ {
		b := br.Wrap(newTrained(t, 11)) // same key every round
		b.Evaluate(video.NewStream(video.Jackson(), 9).Next())
		b.(Member).Leave()
	}
	idle := br.Wrap(newTrained(t, 12)) // different key, never submits
	idle.(Member).Leave()

	active := 0
	for _, sh := range br.shards {
		sh.mu.Lock()
		active += len(sh.groups)
		sh.mu.Unlock()
	}
	if active != 0 {
		t.Fatalf("%d groups still held after every proxy left", active)
	}
	ms := br.Metrics()
	if len(ms) != 2 {
		t.Fatalf("want 2 retired keys in metrics, got %+v", ms)
	}
	for _, g := range ms {
		if g.Live != 0 {
			t.Fatalf("retired group reports live members: %+v", g)
		}
	}
	var submitted GroupMetrics
	for _, g := range ms {
		if g.Frames > 0 {
			submitted = g
		}
	}
	if submitted.Members != 3 || submitted.Frames != 3 || submitted.Batches != 3 {
		t.Fatalf("rotated key should accumulate 3 members/frames/batches: %+v", submitted)
	}
}

// armedPanicBackend panics on every evaluation while armed — the
// crashing-model stand-in for the isolation test. Unarmed it delegates,
// so warm-up submissions establish group membership normally.
type armedPanicBackend struct {
	filters.Coalescable
	armed atomic.Bool
}

func (b *armedPanicBackend) EvaluateBatch(frames []*video.Frame, dst []*filters.Output) []*filters.Output {
	if b.armed.Load() {
		panic("injected batch fault")
	}
	return b.Coalescable.EvaluateBatch(frames, dst)
}

func (b *armedPanicBackend) Evaluate(f *video.Frame) *filters.Output {
	var out [1]*filters.Output
	return b.EvaluateBatch([]*video.Frame{f}, out[:0])[0]
}

// A member whose evaluation panics mid-batch must not take down its
// coalesce group: the healthy group-mate still gets outputs bit-identical
// to a standalone evaluation, only the faulting submitter observes the
// panic, and the group keeps serving afterwards.
func TestBrokerIsolatesPanickingMember(t *testing.T) {
	p := video.Jackson()
	bad := &armedPanicBackend{Coalescable: newTrained(t, 7)}
	br := New(Config{Batch: 1 << 20, Flush: 30 * time.Millisecond})
	// Wrapped first: the faulting backend becomes the group evaluator, so
	// the merged batch itself panics and the broker must fall back to
	// per-submitter isolation.
	badProxy := br.Wrap(bad)
	goodProxy := br.Wrap(newTrained(t, 7))

	clipBad := video.NewStream(p, 11).Take(4)
	clipGood := video.NewStream(p, 12).Take(4)
	want := filters.EvaluateBatch(newTrained(t, 7), clipGood)

	// Warm-up, unarmed: both proxies take membership so the armed round
	// coalesces instead of running the lone-member fast path.
	filters.EvaluateBatchInto(badProxy, clipBad[:1], nil)
	filters.EvaluateBatchInto(goodProxy, clipGood[:1], nil)

	bad.armed.Store(true)
	var (
		wg          sync.WaitGroup
		badPanicked atomic.Bool
		got         []*filters.Output
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() != nil {
				badPanicked.Store(true)
			}
		}()
		filters.EvaluateBatchInto(badProxy, clipBad, nil)
	}()
	go func() {
		defer wg.Done()
		got = filters.EvaluateBatchInto(goodProxy, clipGood, nil)
	}()
	wg.Wait()

	if !badPanicked.Load() {
		t.Fatal("faulting member's submitter never observed its panic")
	}
	if len(got) != len(clipGood) {
		t.Fatalf("healthy member got %d outputs, want %d", len(got), len(clipGood))
	}
	for j := range got {
		requireSameOutput(t, 1, j, got[j], want[j])
	}

	// The group survives the fault: the healthy member keeps evaluating
	// (through the disarmed group evaluator) with identical results.
	bad.armed.Store(false)
	again := filters.EvaluateBatchInto(goodProxy, clipGood, nil)
	if len(again) != len(want) {
		t.Fatalf("post-fault evaluation got %d outputs, want %d", len(again), len(want))
	}
	for j := range again {
		requireSameOutput(t, 1, j, again[j], want[j])
	}
}

// parallelRecorder is a Coalescable evaluator that records every worker
// budget the broker hands it before an evaluation.
type parallelRecorder struct {
	*filters.Trained
	mu  sync.Mutex
	set []int
}

func (p *parallelRecorder) SetEvalWorkers(n int) {
	p.mu.Lock()
	p.set = append(p.set, n)
	p.mu.Unlock()
	p.Trained.SetEvalWorkers(n)
}

// A configured Workers budget must be applied only to flushes whose
// estimated GEMM work clears ParallelFlops; smaller flushes pin the
// evaluator to one core. With no Workers configured the broker must not
// touch the evaluator's worker setting at all.
func TestBrokerRoutesFlushesThroughWorkerBudget(t *testing.T) {
	rec := &parallelRecorder{Trained: newTrained(t, 21)}
	perFrame := rec.ForwardFlops()
	if perFrame <= 0 {
		t.Fatalf("ForwardFlops = %d", perFrame)
	}
	var asked atomic.Int64
	br := New(Config{
		Batch: 64, Flush: time.Hour, Shards: 3,
		ParallelFlops: 4 * perFrame, // 4+ frames fan out, fewer stay serial
		Workers: func(distinct int) int {
			asked.Add(1)
			if distinct < 1 {
				t.Errorf("Workers called with distinct=%d", distinct)
			}
			return 3
		},
	})
	bk := br.Wrap(rec)
	frames := video.NewStream(video.Jackson(), 5).Take(8)
	// Single member: the sync fast path evaluates immediately, making the
	// flush boundaries deterministic.
	filters.EvaluateBatch(bk, frames)     // 8 frames ≥ threshold → budget
	filters.EvaluateBatch(bk, frames[:2]) // 2 frames < threshold → 1 worker
	rec.mu.Lock()
	got := append([]int(nil), rec.set...)
	rec.mu.Unlock()
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("worker budgets applied = %v, want [3 1]", got)
	}
	if asked.Load() != 1 {
		t.Fatalf("Workers consulted %d times, want 1", asked.Load())
	}

	// No Workers configured: the evaluator's setting must stay untouched.
	rec2 := &parallelRecorder{Trained: newTrained(t, 22)}
	br2 := New(Config{Batch: 64, Flush: time.Hour})
	filters.EvaluateBatch(br2.Wrap(rec2), frames)
	rec2.mu.Lock()
	defer rec2.mu.Unlock()
	if len(rec2.set) != 0 {
		t.Fatalf("broker without Workers touched the evaluator: %v", rec2.set)
	}
}

// Feeds joining and draining across shards while deadline flushes run:
// the sharded broker's bookkeeping (join, flush, leave, retire, metrics
// folds) must stay race-free and account for every frame exactly once.
// Run under -race this is the churn proof for the shard split.
func TestBrokerShardChurn(t *testing.T) {
	p := video.Jackson()
	const arches, workers, rounds, perFeed = 5, 8, 6, 24
	br := New(Config{Batch: 6, Flush: 200 * time.Microsecond, Shards: 4})

	stop := make(chan struct{})
	var snapshots sync.WaitGroup
	snapshots.Add(1)
	go func() {
		defer snapshots.Done()
		for {
			select {
			case <-stop:
				return
			default:
				br.Metrics()
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			frames := video.NewStream(p, uint64(500+w)).Take(perFeed)
			for round := 0; round < rounds; round++ {
				arch := (w + round) % arches // keys spread across shards
				bk := br.Wrap(newTrained(t, uint64(30+arch)))
				var outs []*filters.Output
				for off := 0; off+2 <= len(frames); off += 2 {
					outs = filters.EvaluateBatchInto(bk, frames[off:off+2], outs)
				}
				if len(outs) != perFeed {
					t.Errorf("worker %d round %d: %d outputs, want %d", w, round, len(outs), perFeed)
				}
				bk.(Member).Leave()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapshots.Wait()

	var frames int64
	for _, gm := range br.Metrics() {
		frames += gm.Frames
	}
	if want := int64(workers * rounds * perFeed); frames != want {
		t.Fatalf("metrics account %d frames, want %d", frames, want)
	}
}

// Metrics must account for a flush before any of its submitters wakes:
// a caller that reads the snapshot right after its submission returns
// sees every frame returned so far, whichever goroutine ran the flush.
func TestBrokerMetricsVisibleOnReturn(t *testing.T) {
	br := New(Config{Batch: 64, Flush: 200 * time.Microsecond})
	a := br.Wrap(newTrained(t, 3))
	b := br.Wrap(newTrained(t, 3))
	frames := video.NewStream(video.Jackson(), 9).Take(4)
	var returned atomic.Int64
	var wg sync.WaitGroup
	for i, be := range []filters.Backend{a, b} {
		wg.Add(1)
		go func(i int, be filters.Backend) {
			defer wg.Done()
			for k := 0; k < 150; k++ {
				be.Evaluate(frames[(i+k)%len(frames)])
				done := returned.Add(1)
				var seen int64
				for _, gm := range br.Metrics() {
					seen += gm.Frames
				}
				if seen < done {
					t.Errorf("submitter %d: metrics account %d frames after %d returned", i, seen, done)
					return
				}
			}
		}(i, be)
	}
	wg.Wait()
}

// poolStats aggregates what a set of poolRecorders observed.
type poolStats struct {
	delay     time.Duration // how long each evaluation lingers, to force overlap
	active    atomic.Int64  // evaluations in flight
	maxActive atomic.Int64
	workers   atomic.Int64 // worker grants held by evaluations in flight
	maxWorker atomic.Int64
	reentered atomic.Bool
}

func storeMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// poolRecorder is one pooled backend instance that records how the pool
// uses it. Entering it from two flushes at once — the one thing the pool
// must never do — flags the stats and panics.
type poolRecorder struct {
	*filters.Trained
	stats   *poolStats
	inside  atomic.Bool
	calls   atomic.Int64
	granted int64         // last SetEvalWorkers grant
	hold    chan struct{} // when set, evaluations block until it closes
}

func newPoolRecorder(t testing.TB, st *poolStats) *poolRecorder {
	return &poolRecorder{Trained: newTrained(t, 41), stats: st}
}

func (r *poolRecorder) SetEvalWorkers(n int) {
	if r.inside.Load() {
		r.stats.reentered.Store(true)
	}
	r.granted = int64(n)
	r.Trained.SetEvalWorkers(n)
}

func (r *poolRecorder) EvaluateBatch(frames []*video.Frame, dst []*filters.Output) []*filters.Output {
	if !r.inside.CompareAndSwap(false, true) {
		r.stats.reentered.Store(true)
		panic("pooled instance entered by two flushes at once")
	}
	defer r.inside.Store(false)
	r.calls.Add(1)
	storeMax(&r.stats.maxActive, r.stats.active.Add(1))
	defer r.stats.active.Add(-1)
	storeMax(&r.stats.maxWorker, r.stats.workers.Add(r.granted))
	defer r.stats.workers.Add(-r.granted)
	if r.hold != nil {
		<-r.hold
	}
	time.Sleep(r.stats.delay)
	return r.Trained.EvaluateBatch(frames, dst)
}

func (r *poolRecorder) Evaluate(f *video.Frame) *filters.Output {
	var out [1]*filters.Output
	return r.EvaluateBatch([]*video.Frame{f}, out[:0])[0]
}

// pooled returns the group's evaluator instances in rank order.
func pooled(bk filters.Backend) []filters.Backend {
	g := bk.(*proxy).group
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]filters.Backend, len(g.evals))
	for i, ev := range g.evals {
		out[i] = ev.be
	}
	return out
}

// Flushes that overlap must run on distinct member instances — never one
// instance twice at once, even one backend handed to two feeds — and,
// given two cores, genuinely concurrently, each submitter still getting
// outputs bit-identical to a standalone evaluation of its frames.
func TestBrokerPoolRunsOverlappingFlushesOnDistinctEvaluators(t *testing.T) {
	p := video.Jackson()
	const feeds, instances, perFeed = 4, 3, 12
	st := &poolStats{delay: 3 * time.Millisecond}
	br := New(Config{Batch: 2, Flush: time.Millisecond}) // every 2-frame submission flushes at once
	recs := make([]*poolRecorder, instances)
	for i := range recs {
		recs[i] = newPoolRecorder(t, st)
	}
	backends := make([]filters.Backend, feeds)
	for i := range backends {
		backends[i] = br.Wrap(recs[i%instances]) // feeds 0 and 3 share one instance
	}
	if n := len(pooled(backends[0])); n != instances {
		t.Fatalf("pool holds %d entries for %d instances", n, instances)
	}
	var wg sync.WaitGroup
	for i := range backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clip := video.NewStream(p, uint64(300+i)).Take(perFeed)
			want := filters.EvaluateBatch(newTrained(t, 41), clip)
			var got []*filters.Output
			for off := 0; off < perFeed; off += 2 {
				got = filters.EvaluateBatchInto(backends[i], clip[off:off+2], got)
			}
			for j := range want {
				requireSameOutput(t, i, j, got[j], want[j])
			}
		}(i)
	}
	wg.Wait()
	if st.reentered.Load() {
		t.Fatal("one evaluator instance was entered by two flushes at once")
	}
	used := 0
	for _, r := range recs {
		if r.calls.Load() > 0 {
			used++
		}
	}
	procs := runtime.GOMAXPROCS(0)
	if max := st.maxActive.Load(); max > int64(procs) {
		t.Fatalf("%d flushes ran at once on a budget of %d", max, procs)
	}
	if procs >= 2 {
		if used < 2 {
			t.Fatalf("overlapping flushes all ran on one evaluator (%d used)", used)
		}
		if st.maxActive.Load() < 2 {
			t.Fatal("no two flushes ever ran concurrently with GOMAXPROCS >= 2")
		}
	}
}

// With many members submitting random batch widths concurrently, every
// output the pool produces must be bit-identical to a standalone
// evaluation — whichever member instance evaluated it. Run under -race.
func TestBrokerPoolOutputsBitIdentical(t *testing.T) {
	p := video.Jackson()
	const feeds, perFeed = 8, 40
	br := New(Config{Batch: 12, Flush: 300 * time.Microsecond})
	backends := make([]filters.Backend, feeds)
	for i := range backends {
		backends[i] = br.Wrap(newTrained(t, 5))
	}
	var wg sync.WaitGroup
	for i := range backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clip := video.NewStream(p, uint64(700+i)).Take(perFeed)
			want := filters.EvaluateBatch(newTrained(t, 5), clip)
			rng := rand.New(rand.NewSource(int64(i)))
			var got []*filters.Output
			for off := 0; off < perFeed; {
				w := min(1+rng.Intn(5), perFeed-off)
				got = filters.EvaluateBatchInto(backends[i], clip[off:off+w], got)
				off += w
			}
			if len(got) != perFeed {
				t.Errorf("feed %d: %d outputs, want %d", i, len(got), perFeed)
				return
			}
			for j := range want {
				requireSameOutput(t, i, j, got[j], want[j])
			}
		}(i)
	}
	wg.Wait()
	var frames int64
	for _, gm := range br.Metrics() {
		frames += gm.Frames
	}
	if frames != feeds*perFeed {
		t.Fatalf("metrics account %d frames, want %d", frames, feeds*perFeed)
	}
}

// Concurrent flushes split the worker budget: together they never hold
// more workers than Workers reports for the whole group, and each one
// holds at least one.
func TestBrokerPoolSplitsWorkerBudget(t *testing.T) {
	p := video.Jackson()
	const budget, feeds, perFeed = 3, 6, 12
	st := &poolStats{delay: 2 * time.Millisecond}
	br := New(Config{
		Batch: 2, Flush: time.Millisecond, ParallelFlops: 1,
		Workers: func(distinct int) int { return min(distinct, budget) },
	})
	backends := make([]filters.Backend, feeds)
	for i := range backends {
		backends[i] = br.Wrap(newPoolRecorder(t, st))
	}
	var wg sync.WaitGroup
	for i := range backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clip := video.NewStream(p, uint64(900+i)).Take(perFeed)
			for off := 0; off < perFeed; off += 2 {
				filters.EvaluateBatchInto(backends[i], clip[off:off+2], nil)
			}
		}(i)
	}
	wg.Wait()
	if st.reentered.Load() {
		t.Fatal("one evaluator instance was entered by two flushes at once")
	}
	if max := st.maxWorker.Load(); max > budget {
		t.Fatalf("concurrent flushes held %d workers on a budget of %d", max, budget)
	}
	if st.maxActive.Load() < 2 {
		t.Fatal("no two flushes ever overlapped: the budget split went unexercised")
	}
}

// A member that leaves drops out of the pool — at once when its evaluator
// is idle, after its in-flight flush otherwise — so later flushes never
// use its instance and the founder role passes to the next member; the
// group still retires when its last proxy departs.
func TestBrokerPoolMemberLeaveDropsEvaluator(t *testing.T) {
	p := video.Jackson()
	st := &poolStats{}
	br := New(Config{Batch: 64, Flush: time.Hour}) // every flush here is a lone member's
	a, b, c := newPoolRecorder(t, st), newPoolRecorder(t, st), newPoolRecorder(t, st)
	pa, pb, pc := br.Wrap(a), br.Wrap(b), br.Wrap(c)
	frames := video.NewStream(p, 17).Take(4)

	// Idle founder leaves: the next member takes over at once.
	pa.(Member).Leave()
	if got := pooled(pb); len(got) != 2 || got[0] != filters.Backend(b) || got[1] != filters.Backend(c) {
		t.Fatalf("pool after the founder left = %v, want [b c]", got)
	}
	filters.EvaluateBatch(pb, frames[:2]) // lone member: synchronous, on the new founder
	if a.calls.Load() != 0 || b.calls.Load() != 1 {
		t.Fatalf("calls a=%d b=%d after founder left, want 0 and 1", a.calls.Load(), b.calls.Load())
	}

	// A busy evaluator whose member leaves stays until its flush returns.
	b.hold = make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		filters.EvaluateBatch(pb, frames[2:])
	}()
	for b.calls.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	pb.(Member).Leave()
	if got := pooled(pc); len(got) != 2 {
		t.Fatalf("busy evaluator left the pool before its flush returned: %v", got)
	}
	close(b.hold)
	<-done
	if got := pooled(pc); len(got) != 1 || got[0] != filters.Backend(c) {
		t.Fatalf("pool after the busy member's flush = %v, want [c]", got)
	}
	filters.EvaluateBatch(pc, frames)
	if a.calls.Load() != 0 || b.calls.Load() != 2 || c.calls.Load() != 1 {
		t.Fatalf("departed instances reused: calls a=%d b=%d c=%d", a.calls.Load(), b.calls.Load(), c.calls.Load())
	}

	pc.(Member).Leave()
	for _, sh := range br.shards {
		sh.mu.Lock()
		n := len(sh.groups)
		sh.mu.Unlock()
		if n != 0 {
			t.Fatalf("group still held after its last proxy left")
		}
	}
	if ms := br.Metrics(); len(ms) != 1 || ms[0].Frames != 8 || ms[0].Live != 0 {
		t.Fatalf("retired group metrics: %+v", ms)
	}
}
