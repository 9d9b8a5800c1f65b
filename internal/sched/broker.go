// Package sched implements the server-wide inference coalescing broker:
// the cross-feed generalisation of the per-feed micro-batching scan.
//
// The paper's economics argument is that monitoring many concurrent
// queries over many camera feeds is only viable when frame evaluation
// cost is amortised across everything that shares work. Within one feed
// the scan batcher already groups frames ahead of the fan-out; but a
// server hosting twenty sparse feeds that all serve the same trained
// model still issues twenty tiny GEMM batches per flush window — one per
// feed. The broker collects those pending batches from every feed whose
// backend shares a network architecture/weights identity
// (filters.Coalescable) and evaluates them as one large ForwardBatch
// under a size-or-deadline policy, scattering the per-frame outputs back
// to each submitter — and through it into each feed's shared memo.
//
// Coalescing never changes a result: the batched kernels produce
// bit-identical per-frame outputs for every batch width, and equal
// coalescing keys certify that any member backend evaluates any member's
// frames identically. The deadline bounds the latency a frame can add
// waiting for cross-feed batch-mates, mirroring the per-feed flush
// deadline, so the server's match-the-moment-it-happens contract holds.
//
// The same interchangeability lets flushes that overlap in time run
// concurrently: each group keeps a pool of evaluators — its members' own
// backend instances, each with its own arena and buffers — and a flush
// claims the lowest-ranked idle one, so a group whose flushes never
// overlap evaluates everything on its founding member exactly as a
// single serial evaluator would. How many flushes run at once, and how
// many workers each may fan out to, is bounded by one CPU budget.
package sched

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"vmq/internal/filters"
	"vmq/internal/video"
)

// Config tunes a Broker. The zero value selects the defaults.
type Config struct {
	// Batch is the size trigger: a group flushes as soon as its pending
	// frames reach this count (default 32 — two of the server's default
	// per-feed micro-batches). Values < 2 select the default.
	Batch int
	// Flush is the deadline trigger: how long the first pending frame of
	// a group may wait for cross-feed batch-mates (default 2ms, matching
	// the per-feed scan flush bound).
	Flush time.Duration
	// Shards is the number of independently locked sub-brokers that
	// architecture groups hash into by coalesce key, so one group's flush
	// bookkeeping (joins, departures, metrics) never serialises against
	// another group's. Values < 1 select max(1, GOMAXPROCS/4) — one shard
	// per few cores; a group only ever lives on one shard, so sharding
	// never changes which frames coalesce together.
	Shards int
	// Workers sizes the evaluator's CPU budget for one merged flush,
	// given the number of distinct submitters it coalesced. The broker
	// applies it (via filters.SetEvalWorkers) only to flushes whose
	// estimated cost reaches ParallelFlops — smaller merges evaluate
	// single-threaded, where the batch is too small to pay for fanning
	// its frames across cores.
	// nil leaves evaluator defaults untouched (size to GOMAXPROCS). The
	// server wires this to its budgeter so coalesced batches and per-feed
	// scans share one CPU budget instead of oversubscribing.
	//
	// A flush merged from every live submitter may use the whole budget,
	// so Workers(n) for n at least the live submitter count is the whole
	// budget: the broker reads it that way (as Workers(math.MaxInt32))
	// when flushes overlap, and splits it across them — concurrent
	// flushes of one group together never hold more workers than that.
	// Without Workers the budget is GOMAXPROCS and each flush counts as
	// one worker.
	Workers func(distinct int) int
	// ParallelFlops is the estimated multiply-add count (batch frames ×
	// the evaluator's per-frame ForwardFlops) at which a merged flush is
	// worth fanning across cores. Values < 1 select the default (4M —
	// roughly a dozen coalesced small-CNN frames).
	ParallelFlops int64
}

func (c Config) withDefaults() Config {
	if c.Batch < 2 {
		c.Batch = 32
	}
	if c.Flush <= 0 {
		c.Flush = 2 * time.Millisecond
	}
	if c.Shards < 1 {
		c.Shards = runtime.GOMAXPROCS(0) / 4
		if c.Shards < 1 {
			c.Shards = 1
		}
	}
	if c.ParallelFlops < 1 {
		c.ParallelFlops = 4 << 20
	}
	return c
}

// Broker coalesces batch evaluations across backends sharing an
// architecture identity. It never blocks a submission indefinitely:
// every pending request is evaluated by the size trigger, the deadline
// timer, or the submitter itself, so shutdown needs no coordination.
//
// Internally the broker is sharded: groups hash by coalesce key onto
// independently locked sub-brokers, so concurrent joins, flush
// bookkeeping and metric folds for unrelated architectures proceed
// without sharing a lock.
type Broker struct {
	cfg    Config
	shards []*brokerShard
}

// brokerShard owns the groups whose keys hash to it: a fixed key→shard
// mapping means sharding is invisible to coalescing semantics — every
// submission for one architecture still meets in the same group.
type brokerShard struct {
	cfg Config

	mu     sync.Mutex
	groups map[string]*group
	// retired accumulates the final counters of groups whose last proxy
	// departed (rotated-out architectures): the group itself is removed —
	// so its evaluators' weight tensors and scratch buffers are released —
	// but its history stays visible in Metrics, merged per key and capped
	// FIFO so churn cannot grow the snapshot without bound.
	retired      map[string]*GroupMetrics
	retiredOrder []string
}

// retainRetired caps how many departed architecture keys keep their
// accumulated counters in the metrics snapshot (per shard).
const retainRetired = 64

// New creates a Broker.
func New(cfg Config) *Broker {
	cfg = cfg.withDefaults()
	br := &Broker{cfg: cfg, shards: make([]*brokerShard, cfg.Shards)}
	for i := range br.shards {
		br.shards[i] = &brokerShard{
			cfg:     cfg,
			groups:  make(map[string]*group),
			retired: make(map[string]*GroupMetrics),
		}
	}
	return br
}

// shardFor maps a coalesce key onto its owning shard (FNV-1a).
func (br *Broker) shardFor(key string) *brokerShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return br.shards[h%uint32(len(br.shards))]
}

// Wrap returns a backend whose batch evaluations are coalesced with every
// other Wrap-returned backend sharing b's coalescing key. Backends that
// declare no key (filters.CoalesceKeyOf == "") are returned unchanged —
// they evaluate exactly as before. b joins its group's evaluator pool.
// The proxy is always safe for concurrent use: the broker never enters
// one backend instance from two flushes at once.
func (br *Broker) Wrap(b filters.Backend) filters.Backend {
	if br == nil {
		return b
	}
	key := filters.CoalesceKeyOf(b)
	if key == "" {
		return b
	}
	cb := b.(filters.Coalescable)
	sh := br.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	g, ok := sh.groups[key]
	if !ok {
		g = &group{
			key: key, sh: sh,
			batch: sh.cfg.Batch, flush: sh.cfg.Flush,
			workersFn:     sh.cfg.Workers,
			parallelFlops: sh.cfg.ParallelFlops,
			flopsPerFrame: filters.ForwardFlopsOf(cb),
		}
		g.idle.L = &g.mu
		sh.groups[key] = g
	}
	if p, ok := b.(*proxy); ok && p.group == g {
		b = p.inner // re-wrapped: join the group directly, not through it
	}
	g.mu.Lock()
	g.joined++
	g.attached++
	ev := g.evaluatorLocked(b)
	g.mu.Unlock()
	// Membership (what flushes wait on) is taken lazily at the proxy's
	// first submission, so a wrapped-but-idle feed — configured yet
	// queryless, for instance — never makes anyone wait for it.
	return &proxy{group: g, inner: b, ev: ev}
}

// evaluatorLocked returns the pool entry serving backend b, appending a
// new lowest-priority one when b is not already pooled (caller holds
// g.mu). One instance wrapped twice — the same backend handed to two
// feeds, or a proxy of this group re-wrapped — shares one entry, so the
// pool can never enter an instance from two flushes at once. The first
// entry, the founder, serves every flush that does not overlap another.
func (g *group) evaluatorLocked(b filters.Backend) *evaluator {
	if reflect.TypeOf(b).Comparable() {
		for _, ev := range g.evals {
			if ev.be == b {
				ev.refs++
				return ev
			}
		}
	}
	ev := &evaluator{be: b, refs: 1}
	g.evals = append(g.evals, ev)
	return ev
}

// GroupMetrics is one architecture group's share of the broker snapshot.
type GroupMetrics struct {
	// Key is the group's architecture/weights identity.
	Key string `json:"key"`
	// Members is the number of backends ever wrapped into the group; Live
	// is how many are actively submitting — membership is taken at a
	// backend's first submission and released when its feed's source ends
	// or the feed closes.
	Members int `json:"members"`
	Live    int `json:"live"`
	// Batches is the number of coalesced evaluations; Frames the frames
	// they covered (AvgBatch = Frames/Batches); MaxBatch the largest
	// single evaluation.
	Batches  int64   `json:"batches"`
	Frames   int64   `json:"frames"`
	AvgBatch float64 `json:"avg_batch"`
	MaxBatch int     `json:"max_batch"`
	// Merged is the number of batches that combined frames from more than
	// one submission — the cross-feed coalescing the broker exists for.
	Merged int64 `json:"merged"`
}

// Metrics snapshots every group — active ones plus the accumulated
// counters of retired ones, merged per key across all shards — sorted by
// key.
func (br *Broker) Metrics() []GroupMetrics {
	if br == nil {
		return nil
	}
	byKey := make(map[string]GroupMetrics)
	var groups []*group
	for _, sh := range br.shards {
		sh.mu.Lock()
		for key, gm := range sh.retired {
			byKey[key] = mergeGroupMetrics(byKey[key], *gm)
		}
		for _, g := range sh.groups {
			groups = append(groups, g)
		}
		sh.mu.Unlock()
	}
	for _, g := range groups {
		g.mu.Lock()
		gm := g.snapshotLocked()
		g.mu.Unlock()
		byKey[g.key] = mergeGroupMetrics(byKey[g.key], gm)
	}
	out := make([]GroupMetrics, 0, len(byKey))
	for _, gm := range byKey {
		if gm.Batches > 0 {
			gm.AvgBatch = float64(gm.Frames) / float64(gm.Batches)
		}
		out = append(out, gm)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

// mergeGroupMetrics folds b's counters into a (same key; the zero value
// is the identity).
func mergeGroupMetrics(a, b GroupMetrics) GroupMetrics {
	a.Key = b.Key
	a.Members += b.Members
	a.Live += b.Live
	a.Batches += b.Batches
	a.Frames += b.Frames
	a.Merged += b.Merged
	if b.MaxBatch > a.MaxBatch {
		a.MaxBatch = b.MaxBatch
	}
	return a
}

// retireLocked folds a departing group's counters into the shard's
// retired accumulator (caller holds sh.mu and g.mu).
func (sh *brokerShard) retireLocked(g *group) {
	gm := g.snapshotLocked()
	if have, ok := sh.retired[g.key]; ok {
		*have = mergeGroupMetrics(*have, gm)
		return
	}
	sh.retired[g.key] = &gm
	sh.retiredOrder = append(sh.retiredOrder, g.key)
	for len(sh.retiredOrder) > retainRetired {
		delete(sh.retired, sh.retiredOrder[0])
		sh.retiredOrder = sh.retiredOrder[1:]
	}
}

// Member is implemented by the backends Wrap returns. Leave releases the
// backend's group membership when its feed stops submitting (source
// exhausted, feed closed), so the remaining members' flushes stop waiting
// out the deadline for submissions that will never come. Leave is
// idempotent, and a member that submits again after leaving is still
// served (its frames simply no longer hold up anyone else).
type Member interface {
	Leave()
}

// request is one submission awaiting a coalesced evaluation.
type request struct {
	from   *proxy // submitter, for counting distinct members per window
	frames []*video.Frame
	outs   []*filters.Output // filled by the flusher before done closes
	pval   any               // panic value when this request's evaluation faulted
	done   chan struct{}
}

// evaluator is one pooled backend instance together with the buffers a
// flush through it reuses. busy and refs are guarded by the group's mu;
// all and scratch belong to whichever flush holds the evaluator.
type evaluator struct {
	be      filters.Backend
	busy    bool // claimed by a flush or an isolation re-run
	refs    int  // attached proxies served by this instance; 0 = leaving the pool
	all     []*video.Frame
	scratch []*filters.Output
}

// group is the pending state for one architecture identity.
type group struct {
	key   string
	sh    *brokerShard
	batch int
	flush time.Duration

	// workersFn/parallelFlops/flopsPerFrame drive the multicore routing
	// of merged flushes (see Config.Workers): flopsPerFrame is the
	// evaluator's per-frame estimate, captured once at group creation.
	workersFn     func(distinct int) int
	parallelFlops int64
	flopsPerFrame int64

	mu       sync.Mutex
	members  int // actively submitting: gates the everyone-pending flush and the lone-member fast path
	attached int // proxies wrapped and not yet departed: gates group removal
	joined   int // memberships ever granted (metrics)
	pending  []*request
	nframes  int
	distinct int    // distinct submitters in the current pending window
	armed    bool   // a deadline timer is running for the current pending set
	gen      uint64 // bumped per armed window so a stale timer cannot flush the next one early
	batches  int64
	frames   int64
	maxBatch int
	merged   int64

	// evals is the evaluator pool in rank order, founder first: member
	// backends reuse forward-pass arenas and are not concurrency-safe, so
	// each flush claims one idle instance for itself. granted is the sum
	// of the worker grants held by the flushes in flight; idle (on mu)
	// wakes flushes waiting for an evaluator or for budget.
	evals   []*evaluator
	granted int
	idle    sync.Cond
}

// submit queues frames for the next coalesced evaluation and blocks until
// their outputs are ready. The caller that trips the size trigger runs
// the evaluation itself; otherwise the deadline timer's goroutine does.
func (g *group) submit(from *proxy, frames []*video.Frame) []*filters.Output {
	r := &request{from: from, frames: frames, done: make(chan struct{})}
	g.mu.Lock()
	if g.members < 2 && g.pending == nil {
		// A single-member group has no one to coalesce with: waiting out
		// the deadline would only throttle the lone feed. Evaluate
		// synchronously (still through the group's evaluator pool).
		g.mu.Unlock()
		g.run([]*request{r})
		if r.pval != nil {
			panic(r.pval)
		}
		return r.outs
	}
	// Count distinct submitters: one member may park several submissions
	// in a window (concurrent query pipelines over one backend), and they
	// must not satisfy the everyone-pending trigger on their own.
	seen := false
	for _, q := range g.pending {
		if q.from == from {
			seen = true
			break
		}
	}
	g.pending = append(g.pending, r)
	if !seen {
		g.distinct++
	}
	g.nframes += len(frames)
	switch {
	case g.nframes >= g.batch || g.distinct >= g.members:
		// Size trigger — or every live member already has a submission
		// parked here, so waiting out the deadline could only add latency.
		take := g.take()
		g.mu.Unlock()
		g.run(take)
	case !g.armed:
		g.armed = true
		g.gen++
		gen := g.gen
		g.mu.Unlock()
		time.AfterFunc(g.flush, func() {
			g.mu.Lock()
			if g.gen != gen {
				// This timer's window was already flushed (size trigger,
				// everyone-pending, or leave); a fresh window may be
				// pending with its own timer — leave it alone.
				g.mu.Unlock()
				return
			}
			take := g.take()
			g.mu.Unlock()
			g.run(take)
		})
	default:
		g.mu.Unlock()
	}
	<-r.done
	if r.pval != nil {
		// This submission's evaluation panicked: re-panic on the
		// submitter's goroutine, where the query's own pipeline barrier
		// (or the feed's warm-scan barrier) turns it into that query's
		// typed failure. The flusher goroutine itself never unwinds.
		panic(r.pval)
	}
	return r.outs
}

// take claims the pending set (caller holds g.mu). Disarming happens here
// rather than by stopping the timer: bumping gen makes any still-running
// timer for this window a no-op without racing timer.Stop.
func (g *group) take() []*request {
	reqs := g.pending
	g.pending = nil
	g.nframes = 0
	g.distinct = 0
	if g.armed {
		g.armed = false
		g.gen++
	}
	return reqs
}

// run evaluates one claimed pending set on an evaluator from the group's
// pool and scatters the outputs back to the submitters in claim order.
// Every submitter is woken only after the evaluator is back in the pool
// and the flush is folded into the group's counters, so a caller that
// returns from a submission sees its frames in Metrics, and a submitter
// that re-submits at once finds the evaluator it just used idle again.
//
// run never panics, whichever goroutine carries it (a submitter, the
// deadline timer, a departing member's flush): a fault in the merged
// evaluation is contained by re-running each request alone on its own
// submitter's inner backend — equal coalescing keys make members
// interchangeable, so healthy group-mates still get their outputs and
// only the request whose evaluation faults carries the panic value back
// to its submitter. One poisoned query must not take down its feed's
// coalesce group, let alone the process hosting it.
func (g *group) run(reqs []*request) {
	if len(reqs) == 0 {
		return
	}
	n, distinct := 0, 0
	for i, r := range reqs {
		n += len(r.frames)
		dup := false
		for _, q := range reqs[:i] {
			if q.from == r.from {
				dup = true
				break
			}
		}
		if !dup {
			distinct++
		}
	}
	// Route this flush's CPU budget: merges whose estimated GEMM work
	// clears the threshold get the scheduler-granted share; smaller ones
	// stay on one core, where fan-out costs more than it saves. Worker
	// count never changes output bytes, only wall-clock.
	want := 1
	if g.workersFn != nil && g.flopsPerFrame > 0 && int64(n)*g.flopsPerFrame >= g.parallelFlops {
		if w := g.workersFn(distinct); w > want {
			want = w
		}
	}
	ev, grant := g.acquire(nil, reqs[0].from.ev, want)
	if g.workersFn != nil {
		filters.SetEvalWorkers(ev.be, grant)
	}
	all := ev.all[:0]
	for _, r := range reqs {
		all = append(all, r.frames...)
	}
	outs, pval := evalGuarded(ev.be, all, ev.scratch[:0])
	if pval == nil {
		off := 0
		for _, r := range reqs {
			r.outs = append(r.outs, outs[off:off+len(r.frames)]...)
			off += len(r.frames)
		}
		// Clear the recycled backing arrays: their slots would otherwise
		// pin the batch's frames and outputs until the evaluator's next
		// flush, which on a quiet group may never come.
		clear(outs)
		ev.scratch = outs[:0]
	} else {
		// The panicking evaluation may have appended into the scratch
		// backing array before unwinding; drop it rather than recycle
		// slots holding unknown state.
		ev.scratch = nil
	}
	clear(all)
	ev.all = all[:0]

	g.mu.Lock()
	g.releaseLocked(ev, grant)
	g.batches++
	g.frames += int64(n)
	if n > g.maxBatch {
		g.maxBatch = n
	}
	if len(reqs) > 1 {
		g.merged++
	}
	g.mu.Unlock()

	if pval != nil {
		// Merged batch poisoned: isolate per submitter, each on its own
		// instance, claimed only now that the merged evaluator is back —
		// a flush never holds two evaluators at once.
		for _, r := range reqs {
			own, grant := g.acquire(r.from.ev, nil, 1)
			if g.workersFn != nil {
				filters.SetEvalWorkers(own.be, grant)
			}
			solo, p := evalGuarded(own.be, r.frames, nil)
			g.mu.Lock()
			g.releaseLocked(own, grant)
			g.mu.Unlock()
			if p != nil {
				r.pval = p
			} else {
				r.outs = append(r.outs, solo...)
			}
		}
	}
	for _, r := range reqs {
		close(r.done)
	}
}

// acquire claims an evaluator and a worker grant of at most want, waiting
// while none is idle or the budget is spent. With own set it claims that
// instance specifically; otherwise the lowest-ranked idle pool entry,
// falling back to fallback once every member has left the pool (late
// submissions after a departure are still served). A flush that starts
// while no other is in flight is granted want in full, so flushes that
// never overlap run exactly as on a single serial evaluator; an
// overlapping one gets what is left of the budget.
func (g *group) acquire(own, fallback *evaluator, want int) (*evaluator, int) {
	budget := 0 // read only once a flush finds another in flight
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		ev := own
		if ev == nil {
			ev = g.pickLocked(fallback)
		}
		if ev != nil && !ev.busy {
			grant := want
			if g.granted > 0 {
				if budget == 0 {
					// Config.Workers is caller code: never call it under mu.
					g.mu.Unlock()
					budget = g.budget()
					g.mu.Lock()
					continue
				}
				grant = min(want, budget-g.granted)
			}
			if grant >= 1 {
				ev.busy = true
				g.granted += grant
				return ev, grant
			}
		}
		g.idle.Wait()
	}
}

// pickLocked returns the lowest-ranked idle pool entry, nil when every
// one is busy, or fallback when the pool is empty (caller holds g.mu).
func (g *group) pickLocked(fallback *evaluator) *evaluator {
	if len(g.evals) == 0 {
		return fallback
	}
	for _, e := range g.evals {
		if !e.busy {
			return e
		}
	}
	return nil
}

// budget is the worker budget the group's concurrent flushes share (see
// Config.Workers).
func (g *group) budget() int {
	if g.workersFn != nil {
		return max(1, g.workersFn(math.MaxInt32))
	}
	return runtime.GOMAXPROCS(0)
}

// releaseLocked returns a claimed evaluator and its grant (caller holds
// g.mu); an evaluator whose members have all left drops out of the pool
// here, so a closed feed's weights are not pinned.
func (g *group) releaseLocked(ev *evaluator, grant int) {
	ev.busy = false
	g.granted -= grant
	if ev.refs <= 0 {
		g.dropLocked(ev)
	}
	g.idle.Broadcast()
}

// dropLocked removes ev from the pool, keeping the survivors' ranks in
// order so the founder role passes to the next member (caller holds g.mu).
func (g *group) dropLocked(ev *evaluator) {
	if i := slices.Index(g.evals, ev); i >= 0 {
		g.evals = slices.Delete(g.evals, i, i+1)
	}
}

// evalGuarded runs one batch evaluation, converting a panic into a
// returned value so group state and locks stay consistent on the
// flusher's goroutine.
func evalGuarded(b filters.Backend, frames []*video.Frame, dst []*filters.Output) (outs []*filters.Output, pval any) {
	defer func() {
		if p := recover(); p != nil {
			outs, pval = nil, p
		}
	}()
	return filters.EvaluateBatchInto(b, frames, dst), nil
}

// snapshotLocked captures the group's counters (caller holds g.mu).
func (g *group) snapshotLocked() GroupMetrics {
	return GroupMetrics{
		Key:      g.key,
		Members:  g.joined,
		Live:     g.members,
		Batches:  g.batches,
		Frames:   g.frames,
		MaxBatch: g.maxBatch,
		Merged:   g.merged,
	}
}

// join registers one actively submitting member (a proxy's first
// submission).
func (g *group) join() {
	g.mu.Lock()
	g.members++
	g.mu.Unlock()
}

// release detaches one proxy — decrementing the submitting membership it
// held, if any — flushing any pending set that now has a submission from
// every remaining live member, and removing the group from the broker
// once its last proxy departs, so rotated-out architectures do not pin
// their evaluator's weight tensors and scratch buffers forever. The
// proxy's evaluator leaves the pool once no attached proxy shares it —
// now if it is idle, else when its in-flight flush returns it.
func (g *group) release(wasMember bool, ev *evaluator) {
	g.sh.mu.Lock()
	g.mu.Lock()
	g.attached--
	if wasMember && g.members > 0 {
		g.members--
	}
	if ev.refs--; ev.refs <= 0 && !ev.busy {
		g.dropLocked(ev)
	}
	var take []*request
	if len(g.pending) > 0 && len(g.pending) >= g.members {
		take = g.take()
	}
	if g.attached <= 0 && len(g.pending) == 0 {
		if cur, ok := g.sh.groups[g.key]; ok && cur == g {
			delete(g.sh.groups, g.key)
			g.sh.retireLocked(g)
		}
	}
	g.mu.Unlock()
	g.sh.mu.Unlock()
	g.run(take)
}

// proxy routes one wrapped backend's evaluations through its group.
type proxy struct {
	group *group
	inner filters.Backend
	ev    *evaluator // inner's pool entry: where its isolation re-runs go

	mu    sync.Mutex
	state int // 0 fresh, 1 joined (submitted at least once), 2 left
}

// ensureJoined takes the submitting membership on first use. A proxy
// that already left never re-joins: its late submissions are still
// served, they just hold no one up.
func (p *proxy) ensureJoined() {
	p.mu.Lock()
	fresh := p.state == 0
	if fresh {
		p.state = 1
	}
	p.mu.Unlock()
	if fresh {
		p.group.join()
	}
}

// Technique implements filters.Backend.
func (p *proxy) Technique() filters.Technique { return p.inner.Technique() }

// Grid implements filters.Backend.
func (p *proxy) Grid() int { return p.inner.Grid() }

// Evaluate implements filters.Backend: a batch of one, coalesced like any
// other submission.
func (p *proxy) Evaluate(f *video.Frame) *filters.Output {
	p.ensureJoined()
	outs := p.group.submit(p, []*video.Frame{f})
	return outs[0]
}

// EvaluateBatch implements filters.BatchBackend. The returned outputs are
// appended to dst per the interface's aliasing rule.
func (p *proxy) EvaluateBatch(frames []*video.Frame, dst []*filters.Output) []*filters.Output {
	if len(frames) == 0 {
		return dst
	}
	p.ensureJoined()
	return append(dst, p.group.submit(p, frames)...)
}

// ConcurrentSafe implements filters.ConcurrentBackend: submissions may
// come from any number of goroutines; the group's pool hands each flush
// an instance no other flush is using.
func (p *proxy) ConcurrentSafe() bool { return true }

// CoalesceKey implements filters.Coalescable, so an already-wrapped
// backend re-wrapped by the same or another broker still coalesces.
func (p *proxy) CoalesceKey() string { return p.group.key }

// Leave implements Member.
func (p *proxy) Leave() {
	p.mu.Lock()
	prev := p.state
	p.state = 2
	p.mu.Unlock()
	if prev != 2 {
		p.group.release(prev == 1, p.ev)
	}
}
