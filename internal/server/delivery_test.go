package server

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"vmq/internal/filters"
	"vmq/internal/rlog"
	"vmq/internal/stream"
	"vmq/internal/video"
)

// runFleet registers nQueries copies of src on a feed over the given
// clip, drains them all, and returns the per-query event streams.
func runFleet(t *testing.T, cfg Config, backend filters.Backend, frames []*video.Frame, src string, nQueries int, opt Options) [][]Event {
	t.Helper()
	p := video.Jackson()
	srv := New(cfg)
	if err := srv.AddFeed(FeedConfig{
		Name: p.Name, Profile: p,
		Source:  &stream.SliceSource{Frames: frames},
		Backend: backend,
	}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	regs := make([]*Registration, nQueries)
	for i := range regs {
		var err error
		if regs[i], err = srv.Register(parse(t, src), opt); err != nil {
			t.Fatal(err)
		}
		// Attach the consumer before the feed starts, so no event is
		// appended while its reader is still missing.
		regs[i].Results()
	}
	srv.Start()
	out := make([][]Event, nQueries)
	var wg sync.WaitGroup
	for i, r := range regs {
		wg.Add(1)
		go func(i int, r *Registration) {
			defer wg.Done()
			evs, final, sawEnd := drain(r)
			if !sawEnd {
				t.Errorf("query %d: no end event", i)
			}
			if d := r.Log().Dropped(); d != 0 {
				t.Errorf("query %d: %d events dropped under %v", i, d, opt.Policy)
			}
			out[i] = append(evs, final)
		}(i, r)
	}
	wg.Wait()
	return out
}

// Delivery policies must not change what a keeping-up consumer sees: the
// same fleet over the same clip under block (the lossless pre-log
// contract), drop-oldest and sample-under-pressure yields identical
// event streams when consumers drain promptly — the policies differ only
// under pressure. Checked for a calibrated and a trained backend. The
// no-pressure premise is made true, not assumed: every reader attaches
// before the feed starts, each ring holds the clip's whole stream, and
// runFleet checks that no log dropped anything.
func TestServerPolicyEquivalenceWhenDraining(t *testing.T) {
	p := video.Jackson()
	const n, nQueries = 256, 3
	frames := video.NewStream(p, 33).Take(n)
	src := `SELECT FRAMES FROM jackson WHERE COUNT(car) = 1`

	requireSame := func(label string, got, want [][]Event) {
		t.Helper()
		for q := range want {
			if len(got[q]) != len(want[q]) {
				t.Fatalf("%s: query %d event count %d vs %d", label, q, len(got[q]), len(want[q]))
			}
			for i := range want[q] {
				g, w := got[q][i], want[q][i]
				if g.Kind != w.Kind || g.Seq != w.Seq || g.FrameIndex != w.FrameIndex ||
					g.EventSeq != w.EventSeq || g.Objects != w.Objects {
					t.Fatalf("%s: query %d event %d = %+v, want %+v", label, q, i, g, w)
				}
			}
		}
	}

	backends := map[string]func() filters.Backend{
		"calibrated": func() filters.Backend { return filters.NewODFilter(p, 33, nil) },
		"trained": func() filters.Backend {
			return filters.NewUntrained(filters.OD, p, filters.TrainedConfig{Img: 32, Channels: 8, Seed: 33}, nil)
		},
	}
	for label, mk := range backends {
		block := runFleet(t, Config{}, mk(), frames, src, nQueries, Options{Policy: rlog.Block, ResultBuffer: n + 1})
		drop := runFleet(t, Config{}, mk(), frames, src, nQueries, Options{Policy: rlog.DropOldest, ResultBuffer: n + 1})
		sample := runFleet(t, Config{}, mk(), frames, src, nQueries, Options{Policy: rlog.Sample, ResultBuffer: n + 1})
		requireSame(label+"/drop-oldest", drop, block)
		requireSame(label+"/sample", sample, block)
	}
}

// Block stays lossless at the end of a stream: a consumer lagging a full
// ring behind when the query finishes still reads every match and then
// the end event, with no gap — the end event waits for room instead of
// overwriting the consumer's next event.
func TestServerBlockEndEventWaitsForLaggingConsumer(t *testing.T) {
	p := video.Jackson()
	const n = 120
	cfg, _ := clipFeed(p, 7, n)
	srv := New(Config{})
	if err := srv.AddFeed(cfg); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`),
		Options{Policy: rlog.Block, ResultBuffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	reader := reg.ResultsFrom(0)
	defer reader.Detach()
	srv.Start()
	var matches int
	for {
		it, ok := reader.Next(nil)
		if !ok {
			t.Fatalf("stream closed after %d matches without an end event", matches)
		}
		if it.Gap != nil {
			t.Fatalf("block consumer saw gap [%d,%d)", it.Gap.From, it.Gap.To)
		}
		if it.Value.Kind == EventEnd {
			break
		}
		matches++
		time.Sleep(time.Millisecond) // lag: the writer fills the ring and waits
	}
	if matches != n || reg.Log().Dropped() != 0 {
		t.Fatalf("read %d matches, %d dropped; want %d and 0", matches, reg.Log().Dropped(), n)
	}
}

// A deliberately stalled consumer under drop-oldest must not stall its
// feed: sibling queries drain to completion, the stalled query's runner
// also completes (shedding into its ring), and the drops are accounted.
// Under the old lossless channel this scenario wedged the whole feed
// once the buffers filled.
func TestServerDropOldestIsolatesStalledConsumer(t *testing.T) {
	p := video.Jackson()
	const n = 400
	frames := video.NewStream(p, 7).Take(n)
	srv := New(Config{})
	if err := srv.AddFeed(FeedConfig{
		Name: p.Name, Profile: p,
		Source:  &stream.SliceSource{Frames: frames},
		Backend: filters.NewODFilter(p, 7, nil),
	}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Matches every frame: the stalled query's ring (16) wraps many times.
	q := `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`
	stalled, err := srv.Register(parse(t, q), Options{Policy: rlog.DropOldest, ResultBuffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := srv.Register(parse(t, q), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	// Only the healthy consumer reads; the stalled registration's log has
	// no reader at all.
	evs, final, sawEnd := drain(healthy)
	if !sawEnd || final.Final == nil || final.Final.FramesTotal != n {
		t.Fatalf("healthy sibling did not finish cleanly: %+v", final.Final)
	}
	if len(evs) != n {
		t.Fatalf("healthy sibling saw %d matches, want %d", len(evs), n)
	}

	// The stalled runner also finished — shedding, not stalling.
	select {
	case <-stalled.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("stalled query's runner wedged its feed")
	}
	log := stalled.Log()
	if log.Dropped() == 0 {
		t.Fatal("stalled drop-oldest query recorded no drops")
	}
	// n matches + 1 end event were appended; the ring retains the tail.
	if log.NextSeq() != n+1 {
		t.Fatalf("stalled log high-water %d, want %d", log.NextSeq(), n+1)
	}
	// A late consumer sees one gap covering the evictions, then the
	// contiguous retained tail ending with the totals.
	evs2, final2, sawEnd2 := drain(stalled)
	if !sawEnd2 || final2.Final == nil || final2.Final.FramesTotal != n {
		t.Fatalf("stalled stream did not deliver its end event: %+v", final2.Final)
	}
	if len(evs2) == 0 || evs2[0].Kind != EventGap {
		t.Fatalf("late consumer's first event = %+v, want a gap", evs2[0])
	}
	if evs2[0].DroppedFrom != 0 || evs2[0].DroppedTo != log.FirstRetained() {
		t.Fatalf("gap = [%d,%d), want [0,%d)", evs2[0].DroppedFrom, evs2[0].DroppedTo, log.FirstRetained())
	}
	next := evs2[0].DroppedTo
	for _, ev := range append(evs2[1:], final2) {
		if ev.EventSeq != next {
			t.Fatalf("event seq %d, want %d (stream not contiguous after gap)", ev.EventSeq, next)
		}
		next++
	}
}

// Sample-under-pressure sheds matches but never the end event, and the
// metrics account every shed event.
func TestServerSamplePolicySheds(t *testing.T) {
	p := video.Jackson()
	const n = 300
	frames := video.NewStream(p, 9).Take(n)
	srv := New(Config{})
	if err := srv.AddFeed(FeedConfig{
		Name: p.Name, Profile: p,
		Source:  &stream.SliceSource{Frames: frames},
		Backend: filters.NewODFilter(p, 9, nil),
	}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`),
		Options{Policy: rlog.Sample, ResultBuffer: 32})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	<-reg.Done() // no consumer while running: maximum pressure
	log := reg.Log()
	if log.Dropped() == 0 {
		t.Fatal("sampling under pressure dropped nothing")
	}
	// Every produced event is either stored or dropped (an event stored
	// and later overwritten unread counts in both, so >=).
	if log.NextSeq()+log.Dropped() < n+1 {
		t.Fatalf("stored %d + dropped %d < %d events produced — events unaccounted", log.NextSeq(), log.Dropped(), n+1)
	}
	if log.NextSeq() > int64(log.Capacity())+1 {
		t.Fatalf("sampling stored %d events into a %d ring without pressure relief", log.NextSeq(), log.Capacity())
	}
	_, final, sawEnd := drain(reg)
	if !sawEnd || final.Final == nil || final.Final.FramesTotal != n {
		t.Fatalf("sampled stream lost its end event: %+v", final.Final)
	}
}

// The file-backed spill extends the resumable window beyond the ring: a
// consumer arriving after heavy shedding replays the complete history
// with no gap.
func TestServerSpillServesFullHistory(t *testing.T) {
	p := video.Jackson()
	const n = 200
	frames := video.NewStream(p, 13).Take(n)
	srv := New(Config{})
	if err := srv.AddFeed(FeedConfig{
		Name: p.Name, Profile: p,
		Source:  &stream.SliceSource{Frames: frames},
		Backend: filters.NewODFilter(p, 13, nil),
	}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`), Options{
		Policy:       rlog.DropOldest,
		ResultBuffer: 16,
		SpillPath:    filepath.Join(t.TempDir(), "q.ndjson"),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	<-reg.Done()
	evs, final, sawEnd := drain(reg)
	if !sawEnd {
		t.Fatal("no end event")
	}
	if len(evs) != n {
		t.Fatalf("spill-backed replay delivered %d events, want all %d", len(evs), n)
	}
	for i, ev := range evs {
		if ev.Kind != EventMatch || ev.EventSeq != int64(i) || ev.Seq != i {
			t.Fatalf("replayed event %d = %+v", i, ev)
		}
	}
	if final.EventSeq != int64(n) {
		t.Fatalf("end event at seq %d, want %d", final.EventSeq, n)
	}
}

// The server-wide worker budget splits GOMAXPROCS-equivalents across
// feeds with live monitoring queries and rebalances as they come and go.
func TestServerWorkerBudgetRebalances(t *testing.T) {
	pj, pd := video.Jackson(), video.Detrac()
	srv := New(Config{WorkerBudget: 8})
	for _, p := range []video.Profile{pj, pd} {
		if err := srv.AddFeed(LiveFeed(p, 3)); err != nil {
			t.Fatal(err)
		}
	}
	defer srv.Close()
	srv.Start()

	share := func(feed string) int {
		t.Helper()
		for _, fm := range srv.Metrics().Feeds {
			if fm.Name == feed {
				return fm.Workers
			}
		}
		t.Fatalf("no feed %q in metrics", feed)
		return 0
	}

	a, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	go drain(a)
	if got := share("jackson"); got != 8 {
		t.Fatalf("lone feed's share = %d, want the whole budget 8", got)
	}
	if got := share("detrac"); got != 0 {
		t.Fatalf("idle feed's share = %d, want 0", got)
	}

	b, err := srv.Register(parse(t, `SELECT FRAMES FROM detrac WHERE COUNT(car) >= 0`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	go drain(b)
	if sj, sd := share("jackson"), share("detrac"); sj != 4 || sd != 4 {
		t.Fatalf("two live feeds share %d/%d, want 4/4", sj, sd)
	}
	m := srv.Metrics()
	if m.WorkerBudget != 8 || len(m.WorkerShares) != 2 {
		t.Fatalf("budget snapshot = %d %+v", m.WorkerBudget, m.WorkerShares)
	}

	if err := srv.Unregister(b.ID()); err != nil {
		t.Fatal(err)
	}
	if got := share("jackson"); got != 8 {
		t.Fatalf("survivor's share after rebalance = %d, want 8", got)
	}

	// An unfiltered SELECT FRAMES runs no filter stage, so it must not
	// join the budget: the filtered survivor keeps the whole budget.
	c, err := srv.Register(parse(t, `SELECT FRAMES FROM detrac`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	go drain(c)
	if sj, sd := share("jackson"), share("detrac"); sj != 8 || sd != 0 {
		t.Fatalf("unfiltered query shifted the budget to %d/%d, want 8/0", sj, sd)
	}
	if err := srv.Unregister(c.ID()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Unregister(a.ID()); err != nil {
		t.Fatal(err)
	}
}

// MaxQueriesPerFeed rejects registrations beyond the limit with the
// typed ErrFeedBusy, and frees the slot when a query unregisters.
func TestServerFeedRegistrationLimit(t *testing.T) {
	p := video.Jackson()
	srv := New(Config{MaxQueriesPerFeed: 2})
	if err := srv.AddFeed(LiveFeed(p, 5)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	src := `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`
	var regs []*Registration
	for i := 0; i < 2; i++ {
		r, err := srv.Register(parse(t, src), Options{})
		if err != nil {
			t.Fatal(err)
		}
		go drain(r)
		regs = append(regs, r)
	}
	if _, err := srv.Register(parse(t, src), Options{}); !errors.Is(err, ErrFeedBusy) {
		t.Fatalf("third registration error = %v, want ErrFeedBusy", err)
	}
	if err := srv.Unregister(regs[0].ID()); err != nil {
		t.Fatal(err)
	}
	r, err := srv.Register(parse(t, src), Options{})
	if err != nil {
		t.Fatalf("registration after a slot freed: %v", err)
	}
	go drain(r)
	if err := srv.Unregister(r.ID()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Unregister(regs[1].ID()); err != nil {
		t.Fatal(err)
	}
}

// Unknown delivery policies are rejected at registration.
func TestServerRejectsUnknownPolicy(t *testing.T) {
	p := video.Jackson()
	srv := New(Config{})
	if err := srv.AddFeed(LiveFeed(p, 5)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Register(parse(t, `SELECT FRAMES FROM jackson WHERE COUNT(car) >= 0`),
		Options{Policy: "nonsense"}); err == nil {
		t.Fatal("junk policy accepted")
	}
}
