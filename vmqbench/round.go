package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"vmq/internal/rlog"
	"vmq/internal/server"
)

// workload is one named traffic mix. build constructs the whole system
// for one round — servers, backends, feeds, registrations, listeners —
// and is what setup_s times; the returned system then runs the round to
// completion (or is closed unstarted, for setup-only repetitions).
type workload interface {
	clips() *clips
	specs() []*querySpec
	build(tr *tracer, st *roundStats) (system, error)
}

type system interface {
	run(st *roundStats) error
	close()
}

// roundStats is everything one round measured.
type roundStats struct {
	setup time.Duration
	// stealTicks and totalTicks are the machine's CPU ticks stolen by the
	// hypervisor, and all ticks, while the round ran.
	stealTicks, totalTicks int64
	wall                   time.Duration
	frames                 int64 // frames every registered query fully processed
	events                 int64 // events received by the consumers

	lat     []latSample // match events
	recv    []*receiver
	regUs   []float64
	late    []float64 // ms, paced generator lateness
	pubUs   []float64 // µs, Publish calls
	failed  map[string]int64
	lagMax  int64
	depth   int64
	resumes int64
	trips   int64

	virtFrames         int64
	virtMs             float64
	memoHits, memoMiss int64
	schedBatches       int64
	schedFrames        int64
	schedMerged        int64
	selFrames, selPass int64
	spillBytes         int64
	dropped            int64
}

func newRoundStats(specs []*querySpec) *roundStats {
	st := &roundStats{failed: make(map[string]int64)}
	for _, q := range specs {
		st.recv = append(st.recv, newReceiver(q))
	}
	return st
}

// absorbMetrics folds one server's end-of-round metrics into the round.
func (st *roundStats) absorbMetrics(m server.Metrics) {
	for _, f := range m.Feeds {
		if f.Ingest != nil {
			st.failed["ingest_dropped"] += f.Ingest.Dropped
		}
		for _, sf := range f.SharedFilters {
			st.memoHits += sf.Hits
			st.memoMiss += sf.Misses
		}
	}
	for _, q := range m.Queries {
		st.virtFrames += int64(q.Frames)
		st.virtMs += q.VirtualTimeMs
		if q.Windows == 0 {
			st.selFrames += int64(q.Frames)
			st.selPass += int64(q.FilterPassed)
		}
		st.spillBytes += q.SpillBytes
		st.dropped += q.Dropped
		if q.Failure != nil {
			st.failed["query_failed"]++
		}
	}
	for _, g := range m.Coalesce {
		st.schedBatches += g.Batches
		st.schedFrames += g.Frames
		st.schedMerged += g.Merged
	}
}

// observeLive samples the gauges that only exist mid-run: the deepest
// ingest ring and the largest consumer lag.
func (st *roundStats) observeLive(m server.Metrics) {
	for _, f := range m.Feeds {
		if f.Ingest != nil {
			st.depth = max(st.depth, int64(f.Ingest.Depth))
		}
	}
	for _, q := range m.Queries {
		st.lagMax = max(st.lagMax, q.ConsumerLag)
	}
}

// pollLive samples srvs' live gauges every 2ms on traced passes. The
// returned func stops the sampler and waits for it to exit; untraced,
// nothing is sampled and it does nothing.
func pollLive(st *roundStats, tr *tracer, srvs ...*server.Server) func() {
	if tr == nil {
		return func() {}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			for _, s := range srvs {
				st.observeLive(s.Metrics())
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// settle checks every receiver against the reference and counts the
// round's attempted and failed operations.
func (st *roundStats) settle() (attempted, failed int64) {
	attempted = st.frames
	for _, r := range st.recv {
		attempted += int64(len(r.spec.want))
		st.failed["mismatched_events"] += int64(r.mismatches())
		st.failed["gaps"] += int64(r.gaps)
		if r.failedEnd {
			st.failed["query_failed_end"]++
		}
	}
	st.failed["relay_resumes"] += st.resumes
	keys := make([]string, 0, len(st.failed))
	for k := range st.failed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		failed += st.failed[k]
	}
	return attempted, failed
}

// consumeLocal reads one registration's result log in-process until its
// end event, recording each match's latency from origin: when the
// match's frame entered the system, by clip position, in ns on the
// round's clock since epoch. With ack it acknowledges every event
// through the reader, as a durable consumer would.
func consumeLocal(rd *rlog.Reader[server.Event], r *receiver, epoch time.Time, origin func(idx int) int64, ack bool, tr *tracer) {
	defer rd.Detach()
	for {
		readStart := tr.now()
		it, ok := rd.Next(nil)
		if !ok {
			return
		}
		readNs := int64(time.Since(epoch))
		tr.record(spanRead, readStart, noFrame)
		ev := it.Value
		if it.Gap != nil {
			ev = server.Event{Kind: server.EventGap, EventSeq: it.Gap.From, DroppedFrom: it.Gap.From, DroppedTo: it.Gap.To}
		}
		if ev.Kind == server.EventMatch && ev.Seq >= 0 && ev.Seq < len(r.spec.truth) {
			o := origin(ev.Seq)
			r.lat = append(r.lat, latSample{at: o, ms: float64(readNs-o) / 1e6})
			if tr != nil {
				base := tr.at(epoch)
				tr.add(span{layer: spanEvent, start: base + o, end: base + readNs, parent: -1,
					frame: frameKey{int32(r.spec.feed), int32(ev.Seq)}, n: 1})
			}
		}
		r.take(&ev, localWire(&ev))
		if ack && it.Gap == nil {
			rd.Ack(it.Seq)
		}
	}
}

// localWire is the byte form an in-process event is compared in: its
// JSON encoding, or — for an event JSON cannot carry (a non-finite float
// in a window estimate) — its Go-syntax rendering, which is just as
// deterministic.
func localWire(ev *server.Event) []byte {
	if b, err := json.Marshal(ev); err == nil {
		return b
	}
	flat := *ev
	flat.Window, flat.Final = nil, nil
	out := fmt.Appendf(nil, "%+v", flat)
	if ev.Window != nil {
		out = fmt.Appendf(out, " window=%+v", *ev.Window)
	}
	if ev.Final != nil {
		out = fmt.Appendf(out, " final=%+v", *ev.Final)
	}
	return out
}

// pass is one measured stretch: rounds repeated until its time is spent.
type pass struct {
	rounds []*roundStats
	setups []float64 // s
}

// runPass runs rounds until seconds have elapsed (at least one round),
// stopping early rather than overrunning by more than half a round.
func runPass(w workload, seconds float64, tr *tracer) (*pass, error) {
	p := &pass{}
	start := time.Now()
	for {
		runtime.GC()
		st := newRoundStats(w.specs())
		if err := runRound(w, tr, st); err != nil {
			return nil, err
		}
		p.rounds = append(p.rounds, st)
		p.setups = append(p.setups, st.setup.Seconds())
		elapsed := time.Since(start).Seconds()
		perRound := elapsed / float64(len(p.rounds))
		if elapsed+perRound/2 >= seconds {
			return p, nil
		}
	}
}

func runRound(w workload, tr *tracer, st *roundStats) error {
	t0 := time.Now()
	sys, err := w.build(tr, st)
	st.setup = time.Since(t0)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer sys.close()
	steal0, total0 := cpuTicks()
	err = sys.run(st)
	steal1, total1 := cpuTicks()
	st.stealTicks, st.totalTicks = steal1-steal0, total1-total0
	return err
}

// setupOnly builds the system and tears it down unstarted, returning the
// build time: extra setup_s samples for workloads with few rounds.
func setupOnly(w workload) (float64, error) {
	runtime.GC()
	st := newRoundStats(w.specs())
	t0 := time.Now()
	sys, err := w.build(nil, st)
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	sys.close()
	return d.Seconds(), nil
}
