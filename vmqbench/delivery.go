package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmq/internal/fleet"
	"vmq/internal/server"
	"vmq/internal/video"
)

// --- fleet-delivery: the merged stream through the router ---

const (
	deliveryFeeds  = 8
	deliveryFrames = 600
	deliveryAckN   = 64 // events per query between acks
	// deliveryRoundLimit bounds one round: a relay that never reaches its
	// query's end event fails the run instead of hanging it.
	deliveryRoundLimit = 60 * time.Second
)

var shardNames = []string{"a", "b"}

type deliveryFleet struct {
	c      *clips
	qs     []*querySpec
	seed   uint64
	spill  string
	rounds int // rounds built so far: each gets its own spill directory
}

// newDeliveryFleet places feeds evenly: names are drawn until each shard
// owns half of them on the fleet's consistent-hash ring. (Each round's
// router decides placement itself; the ring here only picks the names.)
func newDeliveryFleet(seed uint64, out string) (*deliveryFleet, error) {
	ring := fleet.NewRing(shardNames, 0)
	w := &deliveryFleet{seed: seed, spill: filepath.Join(out, "spill")}
	var names []string
	per := make(map[string]int)
	for k := 0; len(names) < deliveryFeeds; k++ {
		name := fmt.Sprintf("cam%d", k)
		if o := ring.Owner(name); per[o] < deliveryFeeds/len(shardNames) {
			per[o]++
			names = append(names, name)
		}
	}
	w.c = makeClips(video.Detrac(), seed, names, deliveryFrames)
	for i, name := range names {
		w.qs = append(w.qs,
			&querySpec{feed: i, text: "SELECT FRAMES FROM " + name + " WHERE COUNT(car) >= 1"},
			&querySpec{feed: i, text: "SELECT FRAMES FROM " + name + " WHERE COUNT(car) >= 0", spill: true},
			&querySpec{feed: i, text: "SELECT FRAMES FROM " + name + " WHERE COUNT(bus) >= 0"},
			// 15 samples per 30-frame window: with fewer, some windows'
			// control variate fits exactly and their estimate cannot be
			// encoded as JSON (NOTES.md).
			aggregateSpec(i, name, 30, 15, nil),
		)
	}
	return w, computeReference(w.c, w.qs, w.c.calibrated(seed))
}

func (w *deliveryFleet) clips() *clips       { return w.c }
func (w *deliveryFleet) specs() []*querySpec { return w.qs }

// listener is one HTTP surface served on loopback.
type listener struct {
	hs  *http.Server
	url string
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go func() { _ = l.hs.Serve(ln) }()
	return l, nil
}

type deliverySystem struct {
	w        *deliveryFleet
	tr       *tracer
	spillDir string
	srvs     map[string]*server.Server
	shards   []*listener
	rt       *fleet.Router
	router   *listener
	client   *http.Client
	ids      map[string]int // fleet query id -> spec index
	order    []string
	stream   *http.Response
	epoch    time.Time
	stamps   [][]atomic.Int64
}

func (w *deliveryFleet) build(tr *tracer, st *roundStats) (system, error) {
	w.rounds++
	s := &deliverySystem{
		w: w, tr: tr, epoch: time.Now(),
		spillDir: filepath.Join(w.spill, fmt.Sprintf("r%d", w.rounds)),
		client:   &http.Client{Transport: &http.Transport{}},
		ids:      make(map[string]int),
		srvs:     make(map[string]*server.Server),
	}
	if err := s.start(st); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *deliverySystem) start(st *roundStats) error {
	var infos []fleet.ShardInfo
	for _, name := range shardNames {
		srv := server.New(server.Config{SpillDir: filepath.Join(s.spillDir, name)})
		s.srvs[name] = srv
		l, err := serve(srv.Handler())
		if err != nil {
			return err
		}
		s.shards = append(s.shards, l)
		infos = append(infos, fleet.ShardInfo{Name: name, URL: l.url})
	}
	rt, err := fleet.New(fleet.Config{Shards: infos})
	if err != nil {
		return err
	}
	s.rt = rt
	if s.router, err = serve(rt.Handler()); err != nil {
		return err
	}
	c := s.w.c
	for i, name := range c.names {
		src := &stampedSource{frames: c.frames[i], epoch: s.epoch, stamps: make([]atomic.Int64, len(c.frames[i]))}
		s.stamps = append(s.stamps, src.stamps)
		err := s.srvs[s.rt.Owner(name)].AddFeed(server.FeedConfig{
			Name:        name,
			Profile:     c.profile,
			Source:      src,
			Backend:     traceBackend(s.w.c.calibrated(s.w.seed)(i), s.tr),
			NewDetector: detectorFor(s.tr),
		})
		if err != nil {
			return err
		}
	}
	for qi, q := range s.w.qs {
		body := map[string]any{"query": q.text, "policy": "block"}
		if q.spill {
			body["spill"] = true
		}
		if q.samples > 0 {
			body["samples"] = q.samples
		}
		var created struct {
			ID string `json:"id"`
		}
		start, t0 := s.tr.now(), time.Now()
		err := s.postJSON("/v1/queries", body, http.StatusCreated, &created)
		st.regUs = append(st.regUs, float64(time.Since(t0))/1e3)
		s.tr.record(spanRegister, start, noFrame)
		if err != nil {
			countHTTP(st, err)
			return fmt.Errorf("register %q: %w", q.text, err)
		}
		s.ids[created.ID] = qi
		s.order = append(s.order, created.ID)
	}
	resp, err := s.client.Get(s.router.url + "/v1/stream?id=" + strings.Join(s.order, "@0&id=") + "@0")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		st.failed["http_non_2xx"]++
		return fmt.Errorf("merged stream: HTTP %d", resp.StatusCode)
	}
	s.stream = resp
	return nil
}

// statusError is an HTTP answer other than the one expected: a failed
// operation.
type statusError struct {
	op   string
	code int
	msg  []byte
}

func (e *statusError) Error() string { return fmt.Sprintf("%s: HTTP %d: %s", e.op, e.code, e.msg) }

// countHTTP counts err as a failed operation when it is a non-2xx answer.
func countHTTP(st *roundStats, err error) {
	var se *statusError
	if errors.As(err, &se) {
		st.failed["http_non_2xx"]++
	}
}

// postJSON posts body to the router and decodes the answer into out.
func (s *deliverySystem) postJSON(path string, body any, want int, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := s.client.Post(s.router.url+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return &statusError{op: "POST " + path, code: resp.StatusCode, msg: bytes.TrimSpace(msg)}
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

type ackReq struct {
	id  string
	seq int64
}

func (s *deliverySystem) run(st *roundStats) error {
	stopPoll := pollLive(st, s.tr, s.srvs[shardNames[0]], s.srvs[shardNames[1]])
	defer stopPoll()
	// Acks travel on their own connection while the merged stream reads.
	// The buffer holds one pending ack per query, so the reader never
	// waits on the acker in steady state.
	acks := make(chan ackReq, len(s.order))
	var ackErr error
	var ackWG sync.WaitGroup
	ackWG.Add(1)
	go func() {
		defer ackWG.Done()
		for a := range acks {
			err := s.postJSON("/v1/queries/"+a.id+"/ack", map[string]int64{"seq": a.seq}, http.StatusOK, nil)
			if err != nil && ackErr == nil {
				ackErr = err
			}
		}
	}()

	start := time.Now()
	limit := time.AfterFunc(deliveryRoundLimit, func() { s.stream.Body.Close() })
	for _, name := range shardNames {
		s.srvs[name].Start()
	}
	readErr := s.read(st, acks)
	limit.Stop()
	st.wall = time.Since(start)
	close(acks)
	ackWG.Wait()
	if readErr != nil {
		return readErr
	}
	if ackErr != nil {
		countHTTP(st, ackErr)
		return ackErr
	}
	for _, r := range st.recv {
		st.lat = append(st.lat, r.lat...)
	}
	st.frames = s.w.c.total()
	for _, name := range shardNames {
		st.absorbMetrics(s.srvs[name].Metrics())
	}
	return s.routerMetrics(st)
}

// read consumes the merged stream to its end: one shard-attributed line
// per event, events of one query in order.
func (s *deliverySystem) read(st *roundStats, acks chan<- ackReq) error {
	br := bufio.NewReaderSize(timedReader{s.stream.Body, s.tr}, 64<<10)
	unacked := make(map[string]int)
	for {
		line, err := br.ReadBytes('\n')
		if errors.Is(err, io.EOF) && len(line) == 0 {
			return nil
		}
		if err != nil {
			return fmt.Errorf("merged stream: %w", err)
		}
		readNs := int64(time.Since(s.epoch))
		var se fleet.StreamEvent
		if err := json.Unmarshal(line, &se); err != nil {
			return fmt.Errorf("merged stream line %q: %w", line, err)
		}
		qi, ok := s.ids[se.QueryID]
		if !ok || len(se.Event) == 0 {
			// shard_down, shard_up, relay_failed: the relay lost its link.
			st.failed["relay_"+se.Kind]++
			fmt.Fprintf(os.Stderr, "vmqbench: merged stream: %s %s %s\n", se.Kind, se.QueryID, se.Error)
			continue
		}
		var ev server.Event
		if err := json.Unmarshal(se.Event, &ev); err != nil {
			return fmt.Errorf("event %q: %w", se.Event, err)
		}
		r := st.recv[qi]
		st.events++
		if feed := r.spec.feed; ev.Kind == server.EventMatch && ev.Seq >= 0 && ev.Seq < len(s.stamps[feed]) {
			o := s.stamps[feed][ev.Seq].Load()
			r.lat = append(r.lat, latSample{at: o, ms: float64(readNs-o) / 1e6})
			if s.tr != nil {
				base := s.tr.at(s.epoch)
				s.tr.add(span{layer: spanEvent, start: base + o, end: base + readNs, parent: -1, frame: frameKey{int32(feed), int32(ev.Seq)}, n: 1})
			}
		}
		wire := bytes.TrimRight(se.Event, "\n")
		r.take(&ev, wire)
		r.bytes += int64(len(line) - len(wire) - 1) // count the whole relayed line
		if unacked[se.QueryID]++; unacked[se.QueryID] == deliveryAckN || ev.Kind == server.EventEnd {
			unacked[se.QueryID] = 0
			acks <- ackReq{id: se.QueryID, seq: ev.EventSeq}
		}
	}
}

// timedReader records each read of the merged stream's socket as a
// consumer read span: how long the consumer waited for the relay's next
// chunk of events.
type timedReader struct {
	r  io.Reader
	tr *tracer
}

func (t timedReader) Read(p []byte) (int, error) {
	start := t.tr.now()
	n, err := t.r.Read(p)
	t.tr.record(spanRead, start, noFrame)
	return n, err
}

// routerMetrics reads the router's relay and breaker counters.
func (s *deliverySystem) routerMetrics(st *roundStats) error {
	resp, err := s.client.Get(s.router.url + "/v1/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		st.failed["http_non_2xx"]++
		return fmt.Errorf("router metrics: HTTP %d", resp.StatusCode)
	}
	var m fleet.RouterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return err
	}
	for _, sh := range m.Shards {
		st.resumes += sh.Resumes
		st.trips += sh.Trips
	}
	return nil
}

func (s *deliverySystem) close() {
	if s.stream != nil {
		s.stream.Body.Close()
	}
	if s.router != nil {
		s.router.hs.Close()
	}
	if s.rt != nil {
		s.rt.Close()
	}
	for _, l := range s.shards {
		l.hs.Close()
	}
	for _, srv := range s.srvs {
		srv.Close()
	}
	s.client.CloseIdleConnections()
	_ = os.RemoveAll(s.spillDir)
}
