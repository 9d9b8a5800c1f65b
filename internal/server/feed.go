package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/sched"
	"vmq/internal/stream"
	"vmq/internal/video"
)

// FeedState is a feed's lifecycle phase. Feeds move strictly forward:
// creating -> running -> draining -> closed (a bounded feed whose source
// ends naturally skips draining and goes straight to closed).
type FeedState string

// Feed lifecycle states.
const (
	// FeedCreating is a feed registered but not yet pumping (the server
	// has not started, or the pump goroutine has not launched yet).
	FeedCreating FeedState = "creating"
	// FeedRunning is a feed whose pump is live.
	FeedRunning FeedState = "running"
	// FeedDraining is a feed whose ingestion has been cut: no new frames
	// are admitted and no new queries may register, but frames already
	// in flight (ingest ring, fan-out buffers, executor chunks) still flow
	// so every query ends with its end event.
	FeedDraining FeedState = "draining"
	// FeedClosed is a feed whose pump has finished; its subscriptions are
	// closed and it holds no broker memberships.
	FeedClosed FeedState = "closed"
)

// FeedConfig describes one named live feed: where its frames come from
// and the default operator stack queries on it share.
type FeedConfig struct {
	// Name is the feed's registry key; queries address it via their FROM
	// clause. When it differs from the profile's dataset name, the feed
	// binds queries against a copy of the profile renamed to the feed
	// name, so `FROM <feed-name>` resolves naturally (this is how several
	// runtime feeds share one dataset profile).
	Name string
	// Profile is the dataset profile queries are bound against.
	Profile video.Profile
	// Source supplies the frames. A bounded source (a recording) ends the
	// feed and every query on it gracefully; an unbounded one (a live
	// camera) runs until the server closes.
	Source stream.Source
	// Backend is the default filter backend for queries on this feed. It
	// is wrapped in a shared-scan memo, so no matter how many queries
	// register, the network runs once per frame. Nil selects the OD
	// family over the profile (the paper's best performer).
	Backend filters.Backend
	// NewDetector builds one confirmation detector per registered query.
	// Detectors carry call-order-sensitive state (SimYOLO's RNG), so they
	// cannot be shared the way filter outputs can. Nil selects the
	// Mask R-CNN-stand-in oracle.
	NewDetector func() detect.Detector
	// FrameInterval paces the feed (e.g. 33 ms for a 30 fps camera).
	// Zero runs as fast as the slowest query consumes.
	FrameInterval time.Duration
	// MaxFrames ends the feed after this many frames. Zero means
	// unbounded (or until the source itself ends).
	MaxFrames int
}

// LiveFeed is the standard synthetic live feed over a profile: an
// unbounded simulator stream with the OD filter family and oracle
// confirmation, deterministic for the seed.
func LiveFeed(p video.Profile, seed uint64) FeedConfig {
	return FeedConfig{
		Name:    p.Name,
		Profile: p,
		Source:  stream.FromStream(video.NewStream(p, seed)),
		Backend: filters.NewODFilter(p, seed, nil),
	}
}

// feed is one running feed: the fan-out pump, the shared-scan filter
// memos queries on this feed draw from (each query's executor fills them
// a chunk at a time), and (for order-insensitive detectors) the shared
// confirmation memo.
type feed struct {
	name    string
	profile video.Profile
	// dataset is the underlying dataset profile's name, kept before the
	// bind copy is renamed to the feed — what listings report as the
	// feed's profile.
	dataset string
	fanout  *stream.Fanout
	newDet  func() detect.Detector
	deflt   *filters.Shared
	detMemo *detect.Memo
	broker  *sched.Broker // nil when cross-feed coalescing is disabled

	// push is the feed's ingest ring when its frames arrive from
	// publishers (a *stream.PushSource config); nil for decoded feeds.
	push *stream.PushSource
	// gate cuts a decoded feed's source on drain.
	gate *drainGate

	// lastFrame is the wall-clock UnixMilli of the last frame the pump
	// dispatched (0 until the first frame) — the stall watchdog's input.
	lastFrame atomic.Int64

	mu      sync.Mutex
	shared  map[filters.Backend]*sharedEntry
	started time.Time
	running bool
	// readers counts registrations reading the feed (sharedFor/release
	// pairs) and ended records that its source has run dry. Queries keep
	// submitting the frames buffered in their subscriptions after the
	// source ends, so the feed holds its broker memberships until both:
	// the source has ended and the last reader is done.
	readers int
	ended   bool
	// state is the lifecycle phase; endReason is stamped on every query's
	// end event once a drain or removal decides how the feed ends (empty
	// for a source that ends on its own).
	state     FeedState
	endReason string
}

// State returns the feed's lifecycle phase.
func (f *feed) State() FeedState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state
}

// endedReason returns the reason runners stamp on end events ("" while
// the feed has not been drained or removed).
func (f *feed) endedReason() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.endReason
}

// stalledNow reports the feed's last-frame timestamp (UnixMilli, 0
// until the first frame) and whether the watchdog flags the feed as
// stalled: running, with subscribers waiting on it, yet no frame pumped
// within the window. A non-positive window disables the check. A feed
// nobody subscribes to is idle by design (the pull-driven pump never
// reads its source), not stalled.
func (f *feed) stalledNow(window time.Duration) (int64, bool) {
	last := f.lastFrame.Load()
	f.mu.Lock()
	running := f.running && f.state == FeedRunning
	started := f.started
	f.mu.Unlock()
	if !running || window <= 0 || f.fanout.Subscribers() == 0 {
		return last, false
	}
	ref := started
	if last > 0 {
		ref = time.UnixMilli(last)
	}
	return last, time.Since(ref) > window
}

// drain cuts the feed's ingestion while letting everything already in
// flight — ingest-ring frames, fan-out buffers — flow to the registered
// queries, which then end through the ordinary source-EOF path: the
// fan-out closes every subscription, each runner emits its end event
// carrying reason, and the last one done releases the feed's broker
// memberships. Reports whether this call initiated the drain (false when the
// feed was already draining or closed). Safe to call before the pump
// starts: the later start finds the source already cut and closes out
// immediately.
func (f *feed) drain(reason string) bool {
	f.mu.Lock()
	if f.state == FeedDraining || f.state == FeedClosed {
		f.mu.Unlock()
		return false
	}
	f.state = FeedDraining
	f.endReason = reason
	f.mu.Unlock()
	if f.push != nil {
		// Close the ring's input: publishers get ErrPushClosed, buffered
		// frames still reach the scan.
		f.push.Close()
	} else {
		f.gate.cut()
	}
	// A pump idling on an empty subscriber set never reads the source, so
	// it would never observe the cut; with registrations rejected from
	// here on, no subscriber can appear and stopping it is safe.
	if f.fanout.Subscribers() == 0 {
		f.fanout.Stop()
	}
	return true
}

// sharedEntry is one memoised backend on this feed. Override backends
// (Options.Backend) are reference-counted by the registrations using
// them: when the last one retires, the entry is dropped and its broker
// membership released, so long-running servers with query churn do not
// accumulate groups, members and retained weight tensors. The feed's
// default entry lives for the feed's lifetime.
type sharedEntry struct {
	sh    *filters.Shared
	refs  int          // live registrations on an override backend
	leave sched.Member // non-nil when the wrapped backend holds a broker membership
}

func newSharedEntry(sh *filters.Shared, wrapped filters.Backend) *sharedEntry {
	e := &sharedEntry{sh: sh}
	if m, ok := wrapped.(sched.Member); ok {
		e.leave = m
	}
	return e
}

// leaveBroker releases every broker membership this feed holds, so other
// feeds' coalesced flushes stop deadline-waiting for a feed that will
// never submit again. Idempotent (Member.Leave is once-only).
func (f *feed) leaveBroker() {
	f.mu.Lock()
	var leavers []sched.Member
	for _, e := range f.shared {
		if e.leave != nil {
			leavers = append(leavers, e.leave)
		}
	}
	f.mu.Unlock()
	for _, m := range leavers {
		m.Leave()
	}
}

func newFeed(cfg FeedConfig, srv Config, broker *sched.Broker) (*feed, error) {
	fanoutBuffer, cacheCap := srv.FanoutBuffer, srv.SharedCacheCap
	if cfg.Name == "" {
		return nil, fmt.Errorf("server: feed needs a name")
	}
	if cfg.Profile.Name == "" {
		return nil, fmt.Errorf("server: feed %q needs a profile", cfg.Name)
	}
	// VQL FROM clauses resolve against the bound profile's name, so a feed
	// named differently from its dataset profile binds queries against a
	// renamed copy — several runtime feeds can then share one profile.
	dataset := cfg.Profile.Name
	if cfg.Name != cfg.Profile.Name {
		cfg.Profile.Name = cfg.Name
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("server: feed %q needs a source", cfg.Name)
	}
	src := cfg.Source
	if cfg.MaxFrames > 0 {
		src = &limitSource{src: src, left: cfg.MaxFrames}
	}
	if cfg.FrameInterval > 0 {
		src = &pacedSource{src: src, interval: cfg.FrameInterval}
	}
	backend := cfg.Backend
	if backend == nil {
		backend = filters.NewODFilter(cfg.Profile, 1, nil)
	}
	f := &feed{
		name:    cfg.Name,
		dataset: dataset,
		profile: cfg.Profile,
		broker:  broker,
		shared:  make(map[filters.Backend]*sharedEntry),
		state:   FeedCreating,
	}
	if ps, ok := cfg.Source.(*stream.PushSource); ok {
		f.push = ps
	}
	// Trained backends that fingerprint an architecture identity route
	// through the cross-feed broker: feeds serving the same model merge
	// their queries' chunks into one GEMM, and the memo scatter below the
	// Shared wrapper is untouched. The shared map stays keyed by the
	// original backend so queries naming the same instance join the same
	// memo.
	wrapped := broker.Wrap(backend)
	f.deflt = filters.NewShared(wrapped, cacheCap)
	f.shared[backend] = newSharedEntry(f.deflt, wrapped)

	if f.push == nil {
		// Drain cuts a decoded source here; frames already teed
		// downstream still flow. (A push feed closes its ring instead.)
		f.gate = &drainGate{src: src}
		src = f.gate
	}
	// Stamp every pumped frame for the stall watchdog before the EOF
	// notifier (a feed that ended is closed, not stalled).
	src = &stampSource{src: src, last: &f.lastFrame}
	// A bounded feed that drains releases its broker memberships once
	// its source has ended and its queries are done, so feeds still
	// running stop spending the coalesce deadline waiting for
	// submissions it will never make.
	src = &eofNotifySource{src: src, fire: f.sourceEnded}
	f.fanout = stream.NewFanout(src, fanoutBuffer)

	newDet := cfg.NewDetector
	if newDet == nil {
		newDet = func() detect.Detector { return detect.NewOracle(nil) }
	}
	// Share one confirmation memo across queries when the feed's detector
	// declares order-insensitive output (the oracle does): queries sharing
	// the oracle pay one Detect per frame, mirroring the filter memo.
	if memo := detect.NewMemo(newDet(), cacheCap); memo != nil {
		f.detMemo = memo
		f.newDet = func() detect.Detector { return memo }
	} else {
		f.newDet = newDet
	}
	return f, nil
}

// sourceEnded is the EOF notifier: with no reader left, the feed will
// never submit again and releases its broker memberships now; otherwise
// the last reader's release does.
func (f *feed) sourceEnded() {
	f.mu.Lock()
	f.ended = true
	idle := f.readers == 0
	f.mu.Unlock()
	if idle {
		f.leaveBroker()
	}
}

// release undoes a registration's sharedFor claim. The reader count
// drops (the last reader of an ended feed releases its broker
// memberships), and for a registration that brought its own backend,
// that backend's shared entry is dropped (memo and broker membership
// released) when its last registration retires.
func (f *feed) release(override filters.Backend) {
	f.mu.Lock()
	f.readers--
	done := f.ended && f.readers == 0
	var leave sched.Member
	if e, ok := f.shared[override]; override != nil && ok && e.sh != f.deflt {
		if e.refs--; e.refs <= 0 {
			delete(f.shared, override)
			leave = e.leave
		}
	}
	f.mu.Unlock()
	if leave != nil {
		leave.Leave()
	}
	if done {
		f.leaveBroker()
	}
}

// close stops the fan-out pump, releasing the feed's broker memberships.
// Unlike drain it does not wait for in-flight frames; it is the hard-stop
// path (server Close, teardown after a drain has already flushed).
func (f *feed) close() {
	if f.push != nil {
		// Unblock a pump parked in PushSource.Next waiting for publishers
		// that will never come — Fanout.Stop cannot interrupt a blocking
		// source read.
		f.push.Close()
	}
	f.leaveBroker()
	f.fanout.Stop()
}

// sharedFor returns the feed's memoised wrapper for a backend, creating
// one on first use so every query naming the same backend instance joins
// the same shared scan. A nil backend selects the feed default. Each call
// counts a reader and must be paired with a release carrying the same
// backend; override entries are reference-counted.
func (f *feed) sharedFor(b filters.Backend, cacheCap int) *filters.Shared {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.readers++
	if b == nil {
		return f.deflt
	}
	if e, ok := f.shared[b]; ok {
		// The default entry is not refcounted (it lives for the feed's
		// lifetime), so keep the increment symmetric with release's guard
		// even when a query names the feed's own backend explicitly.
		if e.sh != f.deflt {
			e.refs++
		}
		return e.sh
	}
	wrapped := f.broker.Wrap(b)
	e := newSharedEntry(filters.NewShared(wrapped, cacheCap), wrapped)
	e.refs = 1
	f.shared[b] = e
	return e.sh
}

// start launches the pump goroutine (once). A feed drained before its
// pump ever ran keeps its draining state — the pump then observes the cut
// source (or the stop flag) and moves it to closed.
func (f *feed) start() {
	f.mu.Lock()
	if f.running {
		f.mu.Unlock()
		return
	}
	f.running = true
	f.started = time.Now()
	if f.state == FeedCreating {
		f.state = FeedRunning
	}
	f.mu.Unlock()
	go func() {
		f.fanout.Run()
		f.mu.Lock()
		f.state = FeedClosed
		f.mu.Unlock()
	}()
}

// drainGate sits between a decoded feed's source and its fan-out: cut
// flips it to end-of-stream, so the pump observes EOF on its next read
// and the ordinary teardown path runs.
type drainGate struct {
	src    stream.Source
	closed atomic.Bool
}

func (g *drainGate) Next() (*video.Frame, bool) {
	if g.closed.Load() {
		return nil, false
	}
	return g.src.Next()
}

func (g *drainGate) cut() { g.closed.Store(true) }

// stampSource records the wall-clock instant of every frame the wrapped
// source yields, feeding the feed's stall watchdog.
type stampSource struct {
	src  stream.Source
	last *atomic.Int64
}

func (s *stampSource) Next() (*video.Frame, bool) {
	f, ok := s.src.Next()
	if ok {
		s.last.Store(time.Now().UnixMilli())
	}
	return f, ok
}

// eofNotifySource fires a callback once when the wrapped source ends.
type eofNotifySource struct {
	src  stream.Source
	fire func()
	once sync.Once
}

func (s *eofNotifySource) Next() (*video.Frame, bool) {
	f, ok := s.src.Next()
	if !ok {
		s.once.Do(s.fire)
	}
	return f, ok
}

// limitSource caps a source at n frames.
type limitSource struct {
	src  stream.Source
	left int
}

func (l *limitSource) Next() (*video.Frame, bool) {
	if l.left <= 0 {
		return nil, false
	}
	l.left--
	return l.src.Next()
}

// pacedSource spaces frames at least interval apart — a real-time camera
// instead of a CPU-bound generator.
type pacedSource struct {
	src      stream.Source
	interval time.Duration
	last     time.Time
}

func (p *pacedSource) Next() (*video.Frame, bool) {
	if !p.last.IsZero() {
		if wait := p.interval - time.Since(p.last); wait > 0 {
			time.Sleep(wait)
		}
	}
	p.last = time.Now()
	return p.src.Next()
}
