package server

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"vmq/internal/detect"
	"vmq/internal/filters"
	"vmq/internal/query"
	"vmq/internal/stream"
	"vmq/internal/video"
)

// coalesceFleet runs nFeeds bounded feeds, each with its own trained
// backend instance built from tcfg (identical seeds → identical weights →
// one coalescing group) and nQueries registrations per feed, and returns
// every registration's events grouped [feed][query] plus the final
// metrics snapshot.
func coalesceFleet(t *testing.T, cfg Config, tcfg filters.TrainedConfig, clips [][]*video.Frame, nQueries int) ([][][]Event, Metrics) {
	t.Helper()
	base := video.Jackson()
	srv := New(cfg)
	for i := range clips {
		p := base
		p.Name = base.Name + strconv.Itoa(i)
		if err := srv.AddFeed(FeedConfig{
			Name: p.Name, Profile: p,
			Source:  &stream.SliceSource{Frames: clips[i]},
			Backend: filters.NewUntrained(filters.OD, base, tcfg, nil),
		}); err != nil {
			t.Fatal(err)
		}
	}
	defer srv.Close()
	regs := make([][]*Registration, len(clips))
	for i := range regs {
		regs[i] = make([]*Registration, nQueries)
		for q := range regs[i] {
			var err error
			regs[i][q], err = srv.Register(
				parse(t, `SELECT FRAMES FROM jackson`+strconv.Itoa(i)+` WHERE COUNT(car) = 1`), Options{})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.Start()
	out := make([][][]Event, len(clips))
	var wg sync.WaitGroup
	for i := range regs {
		out[i] = make([][]Event, nQueries)
		for q, r := range regs[i] {
			wg.Add(1)
			go func(i, q int, r *Registration) {
				defer wg.Done()
				evs, _, _ := drain(r)
				out[i][q] = evs
			}(i, q, r)
		}
	}
	wg.Wait()
	return out, srv.Metrics()
}

// Cross-feed coalescing must not change any query's results: the same
// fleet over the same recordings with the broker on (default) and off
// (CoalesceBatch 1) yields identical events, while the broker's metrics
// prove frames from different feeds actually merged into shared GEMMs.
func TestServerCrossFeedCoalescingEquivalence(t *testing.T) {
	base := video.Jackson()
	const nFeeds, nFrames = 4, 96
	clips := make([][]*video.Frame, nFeeds)
	for i := range clips {
		clips[i] = video.NewStream(base, uint64(60+i)).Take(nFrames)
	}
	tcfg := filters.TrainedConfig{Img: 16, Channels: 8, Seed: 33}
	coalesced, m := coalesceFleet(t, Config{}, tcfg, clips, 2)
	perFeed, _ := coalesceFleet(t, Config{CoalesceBatch: 1}, tcfg, clips, 2)

	for i := range coalesced {
		for q := range coalesced[i] {
			if len(coalesced[i][q]) != len(perFeed[i][q]) {
				t.Fatalf("feed %d query %d: %d events coalesced vs %d per-feed",
					i, q, len(coalesced[i][q]), len(perFeed[i][q]))
			}
			for e := range coalesced[i][q] {
				g, w := coalesced[i][q][e], perFeed[i][q][e]
				if g.Kind != w.Kind || g.Seq != w.Seq || g.FrameIndex != w.FrameIndex || g.Objects != w.Objects {
					t.Fatalf("feed %d query %d event %d: %+v vs %+v", i, q, e, g, w)
				}
			}
		}
	}

	if len(m.Coalesce) != 1 {
		t.Fatalf("identical architectures must form one group, got %+v", m.Coalesce)
	}
	g := m.Coalesce[0]
	if g.Members != nFeeds {
		t.Fatalf("group has %d members, want %d", g.Members, nFeeds)
	}
	if g.Frames != int64(nFeeds*nFrames) {
		t.Fatalf("group evaluated %d frames, want %d", g.Frames, nFeeds*nFrames)
	}
	if g.Merged == 0 {
		t.Fatal("no batch merged submissions from more than one feed — coalescing never happened")
	}
	if g.AvgBatch <= 2 {
		t.Fatalf("average coalesced batch %.2f — no better than the per-feed micro-batch", g.AvgBatch)
	}
}

// Feeds serving different architectures must keep their frames in
// separate groups (different weights would change results).
func TestServerCoalesceIsolatesArchitectures(t *testing.T) {
	base := video.Jackson()
	srv := New(Config{})
	for i := 0; i < 2; i++ {
		p := base
		p.Name = base.Name + strconv.Itoa(i)
		if err := srv.AddFeed(FeedConfig{
			Name: p.Name, Profile: p,
			Source:  &stream.SliceSource{Frames: video.NewStream(base, uint64(80+i)).Take(32)},
			Backend: filters.NewUntrained(filters.OD, base, filters.TrainedConfig{Img: 16, Channels: 8, Seed: uint64(i)}, nil),
		}); err != nil {
			t.Fatal(err)
		}
	}
	defer srv.Close()
	var regs []*Registration
	for i := 0; i < 2; i++ {
		r, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson`+strconv.Itoa(i)+` WHERE COUNT(car) >= 1`), Options{})
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, r)
	}
	srv.Start()
	var wg sync.WaitGroup
	for _, r := range regs {
		wg.Add(1)
		go func(r *Registration) { defer wg.Done(); drain(r) }(r)
	}
	wg.Wait()
	m := srv.Metrics()
	if len(m.Coalesce) != 2 {
		t.Fatalf("two architectures must form two groups, got %+v", m.Coalesce)
	}
	for _, g := range m.Coalesce {
		if g.Members != 1 || g.Frames != 32 {
			t.Fatalf("group %+v: want 1 member with exactly its own 32 frames", g)
		}
	}
}

// A paced feed under coalescing must still deliver matches promptly — the
// broker's deadline flushes partial batches instead of stalling for
// cross-feed batch-mates that never come — and stay result-identical to a
// standalone run of the same clip.
func TestServerCoalescePacedDeadlineFlush(t *testing.T) {
	p := video.Jackson()
	const n = 48
	frames := video.NewStream(p, 91).Take(n)
	tcfg := filters.TrainedConfig{Img: 16, Channels: 8, Seed: 91}
	srv := New(Config{CoalesceFlush: 500 * time.Microsecond})
	if err := srv.AddFeed(FeedConfig{
		Name: p.Name, Profile: p,
		Source:        &stream.SliceSource{Frames: frames},
		Backend:       filters.NewUntrained(filters.OD, p, tcfg, nil),
		FrameInterval: time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	evs, _, sawEnd := drain(r)
	if !sawEnd {
		t.Fatal("paced run did not finish")
	}
	m := srv.Metrics()
	if len(m.Coalesce) != 1 || m.Coalesce[0].Frames != n {
		t.Fatalf("coalesce metrics %+v: want one group covering all %d frames", m.Coalesce, n)
	}
	// Sparse and paced: flushes must be deadline-driven small batches, not
	// size-trigger stalls.
	if g := m.Coalesce[0]; g.AvgBatch > 8 {
		t.Fatalf("paced feed coalesced batches average %.1f frames — deadline flush not working", g.AvgBatch)
	}
	eng := &query.Engine{
		Backend:  filters.NewUntrained(filters.OD, p, tcfg, nil),
		Detector: detect.NewOracle(nil),
		Tol:      query.Tolerances{Count: 1, Location: 1},
		// ChunkSize 1 mirrors the server's latency contract.
		ChunkSize: 1,
	}
	plan := query.MustBind(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`), p)
	want := eng.RunStream(plan, &stream.SliceSource{Frames: frames}, n)
	if len(evs) != len(want.Matched) {
		t.Fatalf("paced coalesced run matched %d frames, standalone %d", len(evs), len(want.Matched))
	}
	for i, ev := range evs {
		if ev.Seq != want.Matched[i] {
			t.Fatalf("match %d at seq %d, want %d", i, ev.Seq, want.Matched[i])
		}
	}
}

// Query churn with per-query override backends must not accumulate
// state: when the last registration using an override backend retires,
// the feed drops its shared entry and releases its broker membership, so
// a long-running server's memory and coalesce groups stay bounded.
func TestServerOverrideBackendChurnReleases(t *testing.T) {
	p := video.Jackson()
	srv := New(Config{})
	if err := srv.AddFeed(FeedConfig{
		Name: p.Name, Profile: p,
		Source: stream.FromStream(video.NewStream(p, 71)), // unbounded live feed
	}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	tcfg := filters.TrainedConfig{Img: 16, Channels: 8, Seed: 71}
	const churn = 5
	for i := 0; i < churn; i++ {
		r, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 1`), Options{
			Backend:   filters.NewUntrained(filters.OD, p, tcfg, nil),
			MaxFrames: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, sawEnd := drain(r); !sawEnd {
			t.Fatalf("churn query %d did not finish", i)
		}
		<-r.Done()
	}
	f := srv.feeds[p.Name]
	f.mu.Lock()
	entries := len(f.shared)
	f.mu.Unlock()
	if entries != 1 { // only the feed's default backend remains
		t.Fatalf("feed retains %d shared entries after churn, want 1", entries)
	}
	m := srv.Metrics()
	if len(m.Coalesce) != 1 {
		t.Fatalf("identical override architectures should share one group: %+v", m.Coalesce)
	}
	if g := m.Coalesce[0]; g.Members != churn || g.Live != 0 {
		t.Fatalf("group %+v: want %d total members, 0 live after churn", g, churn)
	}
}

// A bounded feed's queries still submit the frames buffered in their
// subscriptions after its source ends, so the feed keeps its broker
// membership until the last of them is done, and only then releases it.
func TestServerFeedHoldsBrokerMembershipUntilQueriesDone(t *testing.T) {
	p := video.Jackson()
	const n = 40
	srv := New(Config{})
	if err := srv.AddFeed(FeedConfig{
		Name: p.Name, Profile: p,
		Source:  &stream.SliceSource{Frames: video.NewStream(p, 5).Take(n)},
		Backend: filters.NewUntrained(filters.OD, p, filters.TrainedConfig{Img: 16, Channels: 8, Seed: 5}, nil),
	}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Every frame matches and nobody reads yet: the block policy wedges
	// the query after 16 events, with the rest of the clip buffered.
	r, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`), Options{ResultBuffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	f := srv.feeds[p.Name]
	deadline := time.Now().Add(10 * time.Second)
	for f.State() != FeedClosed || r.log.NextSeq() < 16 {
		if time.Now().After(deadline) {
			t.Fatalf("feed state %s, query at event %d", f.State(), r.log.NextSeq())
		}
		time.Sleep(time.Millisecond)
	}
	if m := srv.Metrics(); len(m.Coalesce) != 1 || m.Coalesce[0].Live != 1 {
		t.Fatalf("source ended with a query still reading: coalesce %+v, want 1 live member", m.Coalesce)
	}
	if _, _, sawEnd := drain(r); !sawEnd {
		t.Fatal("query did not finish")
	}
	<-r.Done()
	if m := srv.Metrics(); m.Coalesce[0].Live != 0 || m.Coalesce[0].Frames != n {
		t.Fatalf("after the last query: coalesce %+v, want 0 live members and %d frames", m.Coalesce, n)
	}
}
