package server

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

const (
	// budgetTick is how often the budgeter resamples each live feed's
	// dispatch counter to update its EWMA scan rate.
	budgetTick = 250 * time.Millisecond
	// budgetAlpha is the EWMA smoothing factor per sample: high enough to
	// follow a feed whose scene density shifts, low enough that one slow
	// tick does not yank workers around.
	budgetAlpha = 0.3
)

// budgeter is the server-wide filter-worker budget: one machine's
// GOMAXPROCS split across the feeds that currently host at least one
// monitoring query, the way RunMulti budgets a camera fleet
// (CameraResult.Workers) — except live. Before it, every registration's
// engine sized its own pool to GOMAXPROCS, so a server with F busy feeds
// oversubscribed the machine F-fold and the OS scheduler picked the
// losers; now each feed's queries share a resizable gate whose capacity
// is its current share, rebalanced whenever a feed gains its first or
// loses its last query.
//
// Shares are weighted by each feed's observed scan rate (an EWMA of
// frames/s sampled from its fan-out dispatch counter), not split evenly:
// a dense Detrac feed whose filter stage grinds through 15.8 objects per
// frame next to a sparse Jackson feed no longer starves at half the
// machine while its neighbour idles — the busy feed's weight grows with
// its throughput and the apportionment follows. A feed that has not been
// sampled yet takes the mean sampled rate, so a newborn feed neither
// starves nor steals before there is evidence. Shares are floored at one
// worker: with more feeds than cores every feed still makes progress, it
// just degrades to serial filtering (the same silent floor RunMulti
// documents).
type budgeter struct {
	total int           // worker budget, normally GOMAXPROCS at server start
	tick  time.Duration // resample cadence; 0 disables the sampler loop (tests drive it by hand)

	mu      sync.Mutex
	feeds   map[string]*feedBudget
	started bool
	stopC   chan struct{}
	stopO   sync.Once
}

// feedBudget is one live feed's slice of the budget.
type feedBudget struct {
	gate *workerGate
	refs int // monitoring registrations holding the feed live

	frames     func() int64 // the feed's dispatch counter (fan-out frames)
	lastFrames int64
	lastAt     time.Time
	rate       float64 // EWMA scan rate, frames/s
	sampled    bool
	weight     float64 // share weight from the last rebalance
}

func newBudgeter(total int, tick time.Duration) *budgeter {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	return &budgeter{
		total: total,
		tick:  tick,
		feeds: make(map[string]*feedBudget),
		stopC: make(chan struct{}),
	}
}

// join adds one monitoring registration on the named feed and returns
// the feed's gate (shared by every query on the feed). frames is the
// feed's dispatch counter, sampled to estimate its scan rate. The first
// registration on a feed triggers a rebalance across all live feeds, and
// the first join overall starts the rate sampler.
func (b *budgeter) join(feed string, frames func() int64) *workerGate {
	b.mu.Lock()
	defer b.mu.Unlock()
	fb, ok := b.feeds[feed]
	if !ok {
		fb = &feedBudget{gate: newWorkerGate(1), frames: frames, lastAt: time.Now()}
		if frames != nil {
			fb.lastFrames = frames()
		}
		b.feeds[feed] = fb
		b.rebalanceLocked()
	}
	fb.refs++
	if b.tick > 0 && !b.started {
		b.started = true
		go b.loop()
	}
	return fb.gate
}

// leave drops one registration; a feed that loses its last returns its
// share to the pool and the survivors grow.
func (b *budgeter) leave(feed string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fb, ok := b.feeds[feed]
	if !ok {
		return
	}
	if fb.refs--; fb.refs <= 0 {
		delete(b.feeds, feed)
		// Wake anything still blocked on the departing gate: its queries
		// are winding down and must not wait on a retired budget.
		fb.gate.resize(b.total)
		b.rebalanceLocked()
	}
}

// stop ends the rate sampler; idempotent.
func (b *budgeter) stop() { b.stopO.Do(func() { close(b.stopC) }) }

// loop resamples scan rates on the tick until stop.
func (b *budgeter) loop() {
	t := time.NewTicker(b.tick)
	defer t.Stop()
	for {
		select {
		case <-b.stopC:
			return
		case <-t.C:
			b.resampleAt(time.Now())
		}
	}
}

// resampleAt folds each live feed's dispatch counter into its EWMA scan
// rate and rebalances the shares.
func (b *budgeter) resampleAt(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	changed := false
	for _, fb := range b.feeds {
		if fb.frames == nil {
			continue
		}
		dt := now.Sub(fb.lastAt).Seconds()
		if dt <= 0 {
			continue
		}
		cur := fb.frames()
		inst := float64(cur-fb.lastFrames) / dt
		if fb.sampled {
			fb.rate = budgetAlpha*inst + (1-budgetAlpha)*fb.rate
		} else {
			fb.rate, fb.sampled = inst, true
		}
		fb.lastFrames, fb.lastAt = cur, now
		changed = true
	}
	if changed {
		b.rebalanceLocked()
	}
}

// rebalanceLocked recomputes every live feed's share (caller holds b.mu):
// weights 1 + EWMA rate (the +1 keeps an idle feed's weight positive and
// bounds how lopsided the split can get at tiny rates), apportioned by
// largest remainder so the whole budget is handed out, floored at one
// worker per feed.
func (b *budgeter) rebalanceLocked() {
	if len(b.feeds) == 0 {
		return
	}
	names := make([]string, 0, len(b.feeds))
	for name := range b.feeds {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic remainder tie-break

	var sum float64
	var sampled int
	for _, fb := range b.feeds {
		if fb.sampled {
			sum += fb.rate
			sampled++
		}
	}
	mean := 0.0
	if sampled > 0 {
		mean = sum / float64(sampled)
	}
	weights := make([]float64, len(names))
	var wTotal float64
	for i, name := range names {
		fb := b.feeds[name]
		w := 1 + mean
		if fb.sampled {
			w = 1 + fb.rate
		}
		weights[i] = w
		wTotal += w
		fb.weight = w
	}

	shares := make([]int, len(names))
	type frac struct {
		i   int
		rem float64
	}
	fracs := make([]frac, len(names))
	used := 0
	for i, w := range weights {
		exact := float64(b.total) * w / wTotal
		shares[i] = int(exact)
		used += shares[i]
		fracs[i] = frac{i, exact - float64(shares[i])}
	}
	sort.Slice(fracs, func(a, c int) bool {
		if fracs[a].rem != fracs[c].rem {
			return fracs[a].rem > fracs[c].rem
		}
		return fracs[a].i < fracs[c].i
	})
	for k := 0; used < b.total && k < len(fracs); k++ {
		shares[fracs[k].i]++
		used++
	}
	for i, name := range names {
		if shares[i] < 1 {
			shares[i] = 1
		}
		b.feeds[name].gate.resize(shares[i])
	}
}

// coalesceShare sizes the forward-pass worker budget for one merged
// cross-feed batch. The coalescing broker reports how many distinct feeds
// contributed frames, and the batch gets those feeds' combined slice of
// the machine — total×distinct/live — so a batch merged from every live
// feed may use the whole budget while a batch from one feed of many
// stays inside that feed's fair share and cannot starve the per-feed
// gates. Clamped to [1, total]; with no live feeds (a flush can race
// the last registration's teardown) the whole budget is available. The
// broker reads the whole budget as coalesceShare(math.MaxInt32) and
// splits it across a group's flushes in flight, so concurrent merged
// batches together stay inside it too.
func (b *budgeter) coalesceShare(distinct int) int {
	b.mu.Lock()
	live := len(b.feeds)
	b.mu.Unlock()
	if distinct < 1 {
		distinct = 1
	}
	if live <= distinct {
		return b.total
	}
	share := b.total * distinct / live
	if share < 1 {
		share = 1
	}
	return share
}

// snapshot lists every live feed's share, sorted by feed name.
func (b *budgeter) snapshot() []workerShare {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]workerShare, 0, len(b.feeds))
	for name, fb := range b.feeds {
		out = append(out, workerShare{
			Feed: name, Workers: fb.gate.capacity(), Queries: fb.refs,
			RateFPS: fb.rate, Weight: fb.weight,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Feed < out[j].Feed })
	return out
}

// workerShare is one feed's row in the budget snapshot.
type workerShare struct {
	Feed    string `json:"feed"`
	Workers int    `json:"workers"`
	Queries int    `json:"queries"`
	// RateFPS is the feed's EWMA scan rate driving its weight (0 until
	// the first sample lands); Weight is the share weight derived from it
	// at the last rebalance.
	RateFPS float64 `json:"rate_fps,omitempty"`
	Weight  float64 `json:"weight,omitempty"`
}

// workerGate is a resizable counting semaphore implementing
// query.WorkerGate. Shrinking takes effect as holders release; growth
// wakes waiters immediately. Capacity never drops below one.
type workerGate struct {
	mu    sync.Mutex
	cond  *sync.Cond
	cap   int
	inUse int
}

func newWorkerGate(capacity int) *workerGate {
	if capacity < 1 {
		capacity = 1
	}
	g := &workerGate{cap: capacity}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Acquire implements query.WorkerGate.
func (g *workerGate) Acquire() {
	g.mu.Lock()
	for g.inUse >= g.cap {
		g.cond.Wait()
	}
	g.inUse++
	g.mu.Unlock()
}

// Release implements query.WorkerGate.
func (g *workerGate) Release() {
	g.mu.Lock()
	g.inUse--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// resize sets the capacity (floored at 1) and wakes waiters so growth is
// immediate.
func (g *workerGate) resize(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	g.mu.Lock()
	g.cap = capacity
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *workerGate) capacity() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cap
}
