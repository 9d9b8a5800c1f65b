package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"vmq/internal/query"
	"vmq/internal/stats"
	"vmq/internal/video"
)

// nonFiniteWindowSrc over clipFeed(jackson, 3, 100) with three samples
// per window (sampler seed 5) fits the first window's control variate
// exactly: CV variance 0, Reduction +Inf.
const nonFiniteWindowSrc = `SELECT COUNT(FRAMES) FROM jackson WHERE COUNT(car) >= 1 WINDOW HOPPING (SIZE 20, ADVANCE BY 20)`

// The fallback encoding renders every finite value byte for byte as
// encoding/json does, so only the non-finite floats themselves differ.
func TestFiniteTreeMatchesEncodingJSON(t *testing.T) {
	evs := []Event{
		{Kind: EventMatch, QueryID: "q1", Feed: "jackson", EventSeq: 0, Seq: 0, FrameIndex: 0},
		{Kind: EventWindow, QueryID: "q1", Feed: "jackson", EventSeq: 3, WindowStart: 40,
			Window: &query.AggregateResult{
				WindowSize: 20, Samples: 3, Controls: 1,
				Plain:            stats.Summary{N: 3, Mean: 1.0 / 3, Variance: -0.0},
				CV:               stats.CVResult{Estimate: 0.25, Variance: 1e-300, Beta: []float64{0.5, -2}, Reduction: 4},
				TruePerFrameMean: 0.3, VirtualTimePerSample: 3 * time.Millisecond,
			}},
		{Kind: EventEnd, QueryID: "q<&>", Reason: "query_failed", Error: "boom",
			Final: &query.Result{Matched: []int{1, 5}, FramesTotal: 9, VirtualTime: time.Second,
				Failure: &query.Failure{Stage: "filter", Panic: "x"}}},
		{Kind: EventGap, EventSeq: 4, DroppedFrom: 0, DroppedTo: 4},
	}
	for i, ev := range evs {
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(finiteTree(reflect.ValueOf(ev)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("event %d:\nfallback %s\n encoder %s", i, got, want)
		}
	}

	ev := evs[1]
	w := *ev.Window
	w.CV.Reduction = math.Inf(1)
	w.CV.Beta = []float64{math.NaN()}
	ev.Window = &w
	if _, err := json.Marshal(ev); err == nil {
		t.Fatal("premise: encoding/json accepted a non-finite float")
	}
	b, err := marshalFinite(ev)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"Beta":[null],"Reduction":null`)) {
		t.Fatalf("non-finite floats not written as null: %s", b)
	}
	var back Event
	if err := json.Unmarshal(b, &back); err != nil || back.Window.CV.Estimate != 0.25 {
		t.Fatalf("fallback encoding does not decode: %v %+v", err, back.Window)
	}
	if !math.IsInf(ev.Window.CV.Reduction, 1) {
		t.Fatal("encoding changed the in-process event")
	}
}

// A window whose control variate fits its samples exactly reports
// Reduction +Inf, which encoding/json refuses. The NDJSON stream, the
// WebSocket bridge and history pages must still carry that window (the
// value as null) and then the stream's end event; in process the event
// keeps its +Inf.
func TestHTTPNonFiniteWindowStreamsToEnd(t *testing.T) {
	p := video.Jackson()
	cfg, _ := clipFeed(p, 3, 100)
	srv := New(Config{})
	if err := srv.AddFeed(cfg); err != nil {
		t.Fatal(err)
	}
	reg, err := srv.Register(parse(t, nonFiniteWindowSrc), Options{SampleSize: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	select {
	case <-reg.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("window query never finished")
	}
	evs, _ := reg.HistoryPage(0, 100)
	inf := -1
	for i, ev := range evs {
		if ev.Window != nil && math.IsInf(ev.Window.CV.Reduction, 1) {
			inf = i
			break
		}
	}
	if inf < 0 {
		t.Fatal("premise: no window with an exact control-variate fit")
	}

	resp, err := http.Get(apiBase(ts) + "/queries/" + reg.ID() + "/results?from=0")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	resp.Body.Close()
	if len(lines) != len(evs) {
		t.Fatalf("NDJSON carried %d of %d events:\n%s", len(lines), len(evs), strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[inf], `"Reduction":null`) {
		t.Fatalf("exact-fit window line = %s", lines[inf])
	}
	var end Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &end); err != nil || end.Kind != EventEnd {
		t.Fatalf("stream's last line is not its end event: %s (%v)", lines[len(lines)-1], err)
	}

	// History pages (a /v1-only route) carry the same bytes as the stream.
	resp, err = http.Get(ts.URL + "/v1/queries/" + reg.ID() + "/history?from=0&limit=100")
	if err != nil {
		t.Fatal(err)
	}
	var page struct {
		Events []json.RawMessage `json:"events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	if err != nil || len(page.Events) != len(lines) {
		t.Fatalf("history page: %d events, %v", len(page.Events), err)
	}
	for i, raw := range page.Events {
		if string(raw) != lines[i] {
			t.Fatalf("history event %d = %s, stream line %s", i, raw, lines[i])
		}
	}

	// The WebSocket bridge sends one text frame per event, end included.
	conn, br := wsDial(t, ts.URL, "/queries/"+reg.ID()+"/results?from=0")
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := range lines {
		op, payload := wsReadServerFrame(t, br)
		if op != wsOpText || string(payload) != lines[i] {
			t.Fatalf("WS frame %d = op %#x %s, want %s", i, op, payload, lines[i])
		}
	}
}
