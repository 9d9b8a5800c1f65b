package main

import (
	"fmt"
	"time"

	"vmq/internal/filters"
	"vmq/internal/server"
	"vmq/internal/stream"
	"vmq/internal/video"
)

// --- paced-cameras: the open-loop camera fleet ---

const (
	pacedFeeds  = 8
	pacedFPS    = 30
	pacedIngest = 256 // the server's default push ring capacity
)

// schedule is the load generator's fixed timetable: frame k of feed i is
// due at t0 + k·period + i·period/feeds, so the fleet's frames arrive
// evenly spread rather than in bursts of one per feed.
type schedule struct {
	t0     time.Time
	period time.Duration
	feeds  int
}

func (s schedule) due(k, i int) time.Time {
	return s.t0.Add(time.Duration(k)*s.period + time.Duration(i)*s.period/time.Duration(s.feeds))
}

// clock is the time source the generator runs on (real, or fake in tests).
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

// wallClock is the real clock, sleeping with sleepPrecise.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		sleepPrecise(d)
	}
}

// generate publishes frames 0..n-1 of every feed on the schedule from one
// goroutine and returns how late each publish started, in ms. It never
// skips or re-times a frame: a stalled publish delays every later frame
// past its due time, and latency measured from the due time (not from
// the actual publish) charges that stall to every frame it delayed.
func generate(s schedule, n int, ck clock, publish func(i, k int) error) ([]float64, error) {
	late := make([]float64, 0, n*s.feeds)
	for k := 0; k < n; k++ {
		for i := 0; i < s.feeds; i++ {
			due := s.due(k, i)
			ck.SleepUntil(due)
			late = append(late, float64(ck.Now().Sub(due))/1e6)
			if err := publish(i, k); err != nil {
				return late, fmt.Errorf("publish feed %d frame %d: %w", i, k, err)
			}
		}
	}
	return late, nil
}

type pacedFleet struct {
	c  *clips
	qs []*querySpec
}

// newPacedFleet sizes the clips so the schedule fills seconds, less one
// second for start-up and the final drain.
func newPacedFleet(seed uint64, seconds float64) (*pacedFleet, error) {
	n := max(int((seconds-1)*pacedFPS), 2*pacedFPS)
	w := &pacedFleet{c: makeClips(video.Detrac(), seed, feedNames(pacedFeeds), n)}
	for i, name := range w.c.names {
		w.qs = append(w.qs,
			&querySpec{feed: i, text: "SELECT FRAMES FROM " + name + " WHERE COUNT(car) >= 1"},
			&querySpec{feed: i, text: "SELECT FRAMES FROM " + name + " WHERE COUNT(car) <= 20"},
			aggregateSpec(i, name, 20, 10, w.c.calibrated(seed)),
		)
	}
	err := computeReference(w.c, w.qs, func(int) filters.Backend { return newCNN(w.c.profile) })
	return w, err
}

func (w *pacedFleet) clips() *clips       { return w.c }
func (w *pacedFleet) specs() []*querySpec { return w.qs }

type pacedSystem struct {
	localSystem
	push []*stream.PushSource
}

func (w *pacedFleet) build(tr *tracer, st *roundStats) (system, error) {
	s := &pacedSystem{localSystem: localSystem{srv: server.New(server.Config{}), c: w.c, tr: tr}}
	for _, name := range w.c.names {
		push := stream.NewPushSource(pacedIngest, stream.PushBlock)
		s.push = append(s.push, push)
		err := s.srv.AddFeed(server.FeedConfig{
			Name:        name,
			Profile:     w.c.profile,
			Source:      push,
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

func (s *pacedSystem) run(st *roundStats) error {
	stopPoll := pollLive(st, s.tr, s.srv)
	defer stopPoll()
	s.srv.Start()
	sched := schedule{t0: time.Now().Add(20 * time.Millisecond), period: time.Second / pacedFPS, feeds: pacedFeeds}
	s.epoch = sched.t0
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		s.consume(st, sched.t0, func(feed, idx int) int64 { return int64(sched.due(idx, feed).Sub(s.epoch)) }, true)
	}()
	late, err := generate(sched, len(s.c.frames[0]), wallClock{}, func(i, k int) error {
		t0, start := time.Now(), s.tr.now()
		err := s.push[i].Publish(s.c.frames[i][k], nil)
		st.pubUs = append(st.pubUs, float64(time.Since(t0))/1e3)
		s.tr.record(spanPublish, start, frameKey{int32(i), int32(k)})
		return err
	})
	st.late = late
	for _, p := range s.push {
		p.Close()
	}
	<-consumed
	return err
}
