package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"sync/atomic"
	"time"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/query"
	"vmq/internal/server"
	"vmq/internal/stream"
	"vmq/internal/video"
	"vmq/internal/vql"
)

// frameKey names one input frame: the feed it belongs to and its position
// in that feed's clip.
type frameKey struct{ feed, idx int32 }

// clips is a workload's generated input: one clip per feed, drawn from
// video.NewStream(profile, seed+i). The program receives only these
// frames.
type clips struct {
	profile video.Profile
	names   []string
	frames  [][]*video.Frame
	keys    map[*video.Frame]frameKey
}

func makeClips(p video.Profile, seed uint64, names []string, n int) *clips {
	c := &clips{profile: p, names: names, keys: make(map[*video.Frame]frameKey)}
	for i := range names {
		fr := video.NewStream(p, seed+uint64(i)).Take(n)
		for j, f := range fr {
			c.keys[f] = frameKey{int32(i), int32(j)}
		}
		c.frames = append(c.frames, fr)
	}
	return c
}

// feedProfile is the profile a feed's queries bind against: the dataset
// profile renamed to the feed, as the server does it.
func (c *clips) feedProfile(i int) video.Profile {
	p := c.profile
	p.Name = c.names[i]
	return p
}

// calibrated returns the calibrated OD filter factory for the clips'
// feeds: feed i's filter is seeded seed+i, like its clip.
func (c *clips) calibrated(seed uint64) func(feed int) filters.Backend {
	return func(feed int) filters.Backend { return filters.NewODFilter(c.profile, seed+uint64(feed), nil) }
}

func (c *clips) total() int64 {
	var n int64
	for _, fr := range c.frames {
		n += int64(len(fr))
	}
	return n
}

// stampedSource serves one clip and stamps the instant each frame is
// pulled into the server: the ingest time latency is measured from on a
// closed loop, where frames have no schedule.
type stampedSource struct {
	frames []*video.Frame
	pos    int
	epoch  time.Time
	stamps []atomic.Int64 // ns since epoch, per clip position
}

func (s *stampedSource) Next() (*video.Frame, bool) {
	if s.pos >= len(s.frames) {
		return nil, false
	}
	s.stamps[s.pos].Store(int64(time.Since(s.epoch)))
	f := s.frames[s.pos]
	s.pos++
	return f, true
}

var tolerances = query.Tolerances{Count: 1, Location: 1} // the zero-value server.Config default

// querySpec is one registration of a workload and its expected output.
type querySpec struct {
	feed    int
	text    string
	samples int  // aggregate detector samples per window; 0 for monitoring queries
	spill   bool // registered with a server-managed spill
	// filter, when set, builds the query's own filter backend for its
	// feed (server.Options.Backend) instead of the feed default.
	filter func(feed int) filters.Backend

	want  []string // canonical events the reference computed
	truth []bool   // monitoring queries: simulator ground truth per frame
}

func (q *querySpec) windowed() bool { return q.samples > 0 }

// aggregateSpec is the continuous aggregate every workload carries:
// average cars per frame over hopping windows of size frames, with
// samples detector samples each. filter, when set, supplies the
// control-variate filter in place of the feed default.
func aggregateSpec(feed int, name string, size, samples int, filter func(feed int) filters.Backend) *querySpec {
	return &querySpec{feed: feed, samples: samples, filter: filter,
		text: fmt.Sprintf("SELECT AVG(COUNT(car)) FROM %s WINDOW HOPPING (SIZE %d, ADVANCE BY %d)", name, size, size)}
}

// aggConfig mirrors what the server runs a continuous aggregate with.
func aggConfig(samples int) query.AggregateConfig {
	return query.AggregateConfig{
		SampleSize:       samples,
		Sampler:          stream.NewUniformSampler(1),
		MuFromFullWindow: true,
	}
}

// computeReference runs every query once through query.Engine (or the
// windowed aggregate executor) over the same frames, backend and
// tolerances the server gets, outside any timed region. newBackend builds
// a fresh backend for a feed; each feed's backend is memoised so the
// queries on it evaluate each frame once, as the server's shared scan does.
func computeReference(c *clips, specs []*querySpec, newBackend func(i int) filters.Backend) error {
	type memoKey struct {
		feed     int
		override bool
	}
	memos := make(map[memoKey]*filters.Shared)
	for _, q := range specs {
		fr := c.frames[q.feed]
		key := memoKey{q.feed, q.filter != nil}
		memo := memos[key]
		if memo == nil {
			b := newBackend
			if q.filter != nil {
				b = q.filter
			}
			memo = filters.NewShared(b(q.feed), len(fr)+1)
			memos[key] = memo
		}
		parsed, err := vql.Parse(q.text)
		if err != nil {
			return fmt.Errorf("reference %q: %w", q.text, err)
		}
		plan, err := query.Bind(parsed, c.feedProfile(q.feed))
		if err != nil {
			return fmt.Errorf("reference %q: %w", q.text, err)
		}
		q.want = q.want[:0]
		if !q.windowed() {
			eng := &query.Engine{Backend: memo, Detector: detect.NewOracle(nil), Tol: tolerances}
			res := eng.Run(plan, fr)
			for _, idx := range res.Matched {
				q.want = append(q.want, canonMatch(int64(len(q.want)), idx, fr[idx].Index, len(fr[idx].Objects)))
			}
			q.want = append(q.want, canonEnd(int64(len(q.want)), res, "", ""))
			q.truth = query.GroundTruth(plan, fr)
			continue
		}
		size := parsed.Window.Size
		wins, err := query.RunWindows(plan, &stream.SliceSource{Frames: fr}, memo,
			detect.NewOracle(nil), len(fr)/size, aggConfig(q.samples))
		if err != nil && !errors.Is(err, stream.ErrExhausted) {
			return fmt.Errorf("reference %q: %w", q.text, err)
		}
		for k, w := range wins {
			q.want = append(q.want, canonWindow(int64(len(q.want)), k*parsed.Window.Advance, w))
		}
		q.want = append(q.want, canonEnd(int64(len(q.want)), nil, "", ""))
	}
	return nil
}

// Canonical event forms: every field the reference determines, floats
// bit-exact.

func canonMatch(eventSeq int64, seq, frameIndex, objects int) string {
	return fmt.Sprintf("%d match seq=%d frame=%d objects=%d", eventSeq, seq, frameIndex, objects)
}

func canonWindow(eventSeq int64, start int, w *query.AggregateResult) string {
	return fmt.Sprintf("%d window start=%d size=%d samples=%d cv=%x truth=%x", eventSeq, start,
		w.WindowSize, w.Samples, math.Float64bits(w.CV.Estimate), math.Float64bits(w.TruePerFrameMean))
}

func canonEnd(eventSeq int64, res *query.Result, reason, errText string) string {
	if res == nil {
		return fmt.Sprintf("%d end reason=%q error=%q", eventSeq, reason, errText)
	}
	return fmt.Sprintf("%d end reason=%q error=%q frames=%d passed=%d calls=%d matched=%v", eventSeq, reason, errText,
		res.FramesTotal, res.FilterPassed, res.DetectorCalls, res.Matched)
}

func canonEvent(ev *server.Event) string {
	switch ev.Kind {
	case server.EventMatch:
		return canonMatch(ev.EventSeq, ev.Seq, ev.FrameIndex, ev.Objects)
	case server.EventWindow:
		if ev.Window == nil {
			return fmt.Sprintf("%d window start=%d <nil>", ev.EventSeq, ev.WindowStart)
		}
		return canonWindow(ev.EventSeq, ev.WindowStart, ev.Window)
	case server.EventEnd:
		return canonEnd(ev.EventSeq, ev.Final, ev.Reason, ev.Error)
	}
	return fmt.Sprintf("%d %s from=%d to=%d", ev.EventSeq, ev.Kind, ev.DroppedFrom, ev.DroppedTo)
}

// receiver collects one query's events as the consumer reads them.
type receiver struct {
	spec  *querySpec
	canon []string
	raw   hash.Hash // over every event's wire bytes, in order
	bytes int64

	lat       []latSample // match events only
	gaps      int
	failedEnd bool
	matchHits int
	// aggAbsErr and aggTruth sum |CV estimate − truth| and truth over
	// windows.
	aggAbsErr, aggTruth float64
	reductions          []float64
}

func newReceiver(q *querySpec) *receiver { return &receiver{spec: q, raw: sha256.New()} }

// take records one event and its wire encoding.
func (r *receiver) take(ev *server.Event, wire []byte) {
	r.canon = append(r.canon, canonEvent(ev))
	r.raw.Write(wire)
	r.raw.Write([]byte{'\n'})
	r.bytes += int64(len(wire)) + 1
	switch ev.Kind {
	case server.EventGap:
		r.gaps++
	case server.EventEnd:
		if ev.Reason == server.EndReasonQueryFailed || ev.Error != "" {
			r.failedEnd = true
		}
	case server.EventMatch:
		if ev.Seq >= 0 && ev.Seq < len(r.spec.truth) && r.spec.truth[ev.Seq] {
			r.matchHits++
		}
	case server.EventWindow:
		if w := ev.Window; w != nil {
			r.aggAbsErr += math.Abs(w.CV.Estimate - w.TruePerFrameMean)
			r.aggTruth += w.TruePerFrameMean
			r.reductions = append(r.reductions, w.CV.Reduction)
		}
	}
}

func (r *receiver) digest() string { return hex.EncodeToString(r.raw.Sum(nil)) }

// mismatches counts positions where the received events differ from the
// reference, including missing and surplus events.
func (r *receiver) mismatches() int {
	n := 0
	for i := 0; i < max(len(r.canon), len(r.spec.want)); i++ {
		if i >= len(r.canon) || i >= len(r.spec.want) || r.canon[i] != r.spec.want[i] {
			n++
		}
	}
	return n
}

func (r *receiver) truthCount() int {
	n := 0
	for _, t := range r.spec.truth {
		if t {
			n++
		}
	}
	return n
}
