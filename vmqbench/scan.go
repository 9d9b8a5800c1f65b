package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/server"
	"vmq/internal/video"
	"vmq/internal/vql"
)

// weightSeed initialises every feed's CNN filter: one seed for the whole
// fleet, so all feeds share a coalescing identity.
const weightSeed = 13

// newCNN is a feed's filter backend on the CNN workloads: the OD branch
// network at the default geometry.
func newCNN(p video.Profile) *filters.Trained {
	return filters.NewUntrained(filters.OD, p, filters.TrainedConfig{Seed: weightSeed}, nil)
}

// detectorFor is the feed detector factory: the server's default oracle,
// wrapped when tracing (nil leaves the server default in place).
func detectorFor(tr *tracer) func() detect.Detector {
	if tr == nil {
		return nil
	}
	return func() detect.Detector { return traceDetector(detect.NewOracle(nil), tr) }
}

// feedNames returns n feed names cam0..cam<n-1>.
func feedNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("cam%d", i)
	}
	return names
}

// --- trained-fleet: the closed-loop filter scan ---

const (
	scanFeeds  = 16
	scanFrames = 384
)

type scanFleet struct {
	c  *clips
	qs []*querySpec
}

// newScanFleet builds the fleet's inputs. Besides the scan's two
// monitoring queries each feed carries one aggregate, so the accuracy
// metrics are defined here too. Its control variate is the calibrated OD
// filter, the stand-in for a trained filter's accuracy (untrained CNN
// weights reduce no variance), which also leaves the CNN scan unchanged.
func newScanFleet(seed uint64) (*scanFleet, error) {
	w := &scanFleet{c: makeClips(video.Jackson(), seed, feedNames(scanFeeds), scanFrames)}
	for i, name := range w.c.names {
		w.qs = append(w.qs,
			&querySpec{feed: i, text: "SELECT FRAMES FROM " + name + " WHERE COUNT(car) <= 3"},
			&querySpec{feed: i, text: "SELECT FRAMES FROM " + name + " WHERE car LEFT OF person"},
			aggregateSpec(i, name, 16, 8, w.c.calibrated(seed)),
		)
	}
	err := computeReference(w.c, w.qs, func(int) filters.Backend { return newCNN(w.c.profile) })
	return w, err
}

func (w *scanFleet) clips() *clips       { return w.c }
func (w *scanFleet) specs() []*querySpec { return w.qs }

// localSystem is one in-process server whose queries are consumed
// through their result logs.
type localSystem struct {
	srv   *server.Server
	c     *clips
	regs  []*server.Registration
	epoch time.Time
	tr    *tracer
}

// scanSystem is trained-fleet's system: its feeds stamp each frame as
// the server pulls it.
type scanSystem struct {
	localSystem
	stamps [][]atomic.Int64 // per feed: ns since epoch each frame was pulled
}

func (w *scanFleet) build(tr *tracer, st *roundStats) (system, error) {
	s := &scanSystem{localSystem: localSystem{srv: server.New(server.Config{}), c: w.c, epoch: time.Now(), tr: tr}}
	for i, name := range w.c.names {
		src := &stampedSource{frames: w.c.frames[i], epoch: s.epoch, stamps: make([]atomic.Int64, len(w.c.frames[i]))}
		s.stamps = append(s.stamps, src.stamps)
		err := s.srv.AddFeed(server.FeedConfig{
			Name:        name,
			Profile:     w.c.profile,
			Source:      src,
			Backend:     traceBackend(newCNN(w.c.profile), tr),
			NewDetector: detectorFor(tr),
		})
		if err != nil {
			s.close()
			return nil, err
		}
	}
	if err := s.register(w.qs, st); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// register registers every spec in order, timing each call.
func (s *localSystem) register(qs []*querySpec, st *roundStats) error {
	for _, q := range qs {
		parsed, err := vql.Parse(q.text)
		if err != nil {
			return err
		}
		opt := server.Options{SampleSize: q.samples}
		if q.filter != nil {
			opt.Backend = q.filter(q.feed)
		}
		start, t0 := s.tr.now(), time.Now()
		reg, err := s.srv.Register(parsed, opt)
		st.regUs = append(st.regUs, float64(time.Since(t0))/1e3)
		s.tr.record(spanRegister, start, noFrame)
		if err != nil {
			return fmt.Errorf("register %q: %w", q.text, err)
		}
		s.regs = append(s.regs, reg)
	}
	return nil
}

func (s *scanSystem) run(st *roundStats) error {
	stopPoll := pollLive(st, s.tr, s.srv)
	defer stopPoll()
	start := time.Now()
	s.srv.Start()
	s.consume(st, start, func(feed, idx int) int64 { return s.stamps[feed][idx].Load() }, false)
	return nil
}

// consume reads every registration's results in-process until each has
// ended, records the round's wall time from start, then folds the
// round's events and the server's metrics into st. origin gives when a
// feed's frame entered the system, in ns since epoch.
func (s *localSystem) consume(st *roundStats, start time.Time, origin func(feed, idx int) int64, ack bool) {
	var wg sync.WaitGroup
	for i, reg := range s.regs {
		r := st.recv[i]
		feed := r.spec.feed
		wg.Add(1)
		go func() {
			defer wg.Done()
			consumeLocal(reg.ResultsFrom(0), r, s.epoch, func(idx int) int64 { return origin(feed, idx) }, ack, s.tr)
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	for _, r := range st.recv {
		st.events += int64(len(r.canon))
		st.lat = append(st.lat, r.lat...)
	}
	st.frames = s.c.total()
	st.absorbMetrics(s.srv.Metrics())
}

func (s *localSystem) close() { s.srv.Close() }
