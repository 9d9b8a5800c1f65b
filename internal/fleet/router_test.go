package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vmq/internal/server"
)

// routerMetricsOf fetches and decodes the router's /v1/metrics.
func routerMetricsOf(t *testing.T, routerURL string) RouterMetrics {
	t.Helper()
	resp, err := http.Get(routerURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m RouterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// waitShardState polls router metrics until the named shard reaches the
// wanted state.
func waitShardState(t *testing.T, routerURL, shard, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		for _, sm := range routerMetricsOf(t, routerURL).Shards {
			if sm.Name == shard {
				last = sm.State
			}
		}
		if last == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("shard %q never reached state %q (last %q)", shard, want, last)
}

// TestRouterRoutesByOwner: feeds and queries land on the shard the ring
// assigns, and the created query id comes back in fleet <shard>:<id>
// form with the shard attributed.
func TestRouterRoutesByOwner(t *testing.T) {
	d := newShardDirectory()
	sa := startShard(t, d, "alpha", "", server.Config{})
	sb := startShard(t, d, "beta", "", server.Config{})
	defer sa.srv.Close()
	defer sb.srv.Close()
	defer sa.ts.Close()
	defer sb.ts.Close()

	rt, rts := startRouter(t, testRouterConfig(d, sa, sb))

	taken := map[string]bool{}
	feedA := feedOwnedBy(t, rt.ring, "alpha", taken)
	feedB := feedOwnedBy(t, rt.ring, "beta", taken)
	for _, feed := range []string{feedA, feedB} {
		createFeedVia(t, rts.URL, map[string]any{
			"name": feed, "profile": "jackson", "source": "sim", "max_frames": 10,
		})
	}

	idA := registerVia(t, rts.URL, "SELECT FRAMES FROM "+feedA+" WHERE COUNT(car) >= 0", nil)
	idB := registerVia(t, rts.URL, "SELECT FRAMES FROM "+feedB+" WHERE COUNT(car) >= 0", nil)
	if !strings.HasPrefix(idA, "alpha:") {
		t.Fatalf("feed %q query id = %q, want alpha:* (owner alpha)", feedA, idA)
	}
	if !strings.HasPrefix(idB, "beta:") {
		t.Fatalf("feed %q query id = %q, want beta:* (owner beta)", feedB, idB)
	}

	// The registration must live on the owning shard, watching the
	// routed feed. (Local ids collide across shards by design — each
	// shard numbers independently — so check the feed, not the id.)
	localA := strings.TrimPrefix(idA, "alpha:")
	regA, ok := sa.srv.Get(localA)
	if !ok {
		t.Fatalf("query %s not on shard alpha", idA)
	}
	if regA.Feed() != feedA {
		t.Fatalf("query %s watches feed %q on alpha, want %q", idA, regA.Feed(), feedA)
	}
	localB := strings.TrimPrefix(idB, "beta:")
	regB, ok := sb.srv.Get(localB)
	if !ok {
		t.Fatalf("query %s not on shard beta", idB)
	}
	if regB.Feed() != feedB {
		t.Fatalf("query %s watches feed %q on beta, want %q", idB, regB.Feed(), feedB)
	}

	m := routerMetricsOf(t, rts.URL)
	if m.QueriesRouted != 2 {
		t.Fatalf("queries_routed = %d, want 2", m.QueriesRouted)
	}
}

// TestRouterRelayPassthroughAndAck: a stream relayed through the router
// carries the shard's event lines byte-for-byte, and an ack through the
// router moves the shard's acked cursor (exactly-once fleet-wide).
func TestRouterRelayPassthroughAndAck(t *testing.T) {
	d := newShardDirectory()
	sh := startShard(t, d, "solo", "", server.Config{})
	defer sh.srv.Close()
	defer sh.ts.Close()
	_, rts := startRouter(t, testRouterConfig(d, sh))

	createFeedVia(t, rts.URL, map[string]any{
		"name": "cam1", "profile": "jackson", "source": "sim", "max_frames": 40,
	})
	fid := registerVia(t, rts.URL, "SELECT FRAMES FROM cam1 WHERE COUNT(car) >= 0", nil)
	local := strings.TrimPrefix(fid, "solo:")

	// Relay through the router until the end event.
	sc := openStream(t, rts.URL+"/v1/queries/"+fid+"/results?from=0")
	var relayed []StreamEvent
	for {
		ev, ok := sc.next(t, 10*time.Second)
		if !ok {
			t.Fatal("stream closed before end event")
		}
		if ev.Shard != "solo" {
			t.Fatalf("event attributed to shard %q, want solo", ev.Shard)
		}
		if ev.QueryID != fid {
			t.Fatalf("event attributed to query %q, want %q", ev.QueryID, fid)
		}
		// Armed failpoints (VMQ_FAULT=fleet.relay.read=...) intersperse
		// typed outage events; the shard's own payload events must still
		// come through byte-identical around them.
		if ev.Kind == "shard_down" || ev.Kind == "shard_up" {
			continue
		}
		if ev.Kind == "relay_failed" {
			t.Fatalf("relay failed permanently: %s", ev.Error)
		}
		relayed = append(relayed, ev)
		if ev.Kind == "end" {
			break
		}
	}

	// Read the same stream directly off the shard and demand
	// byte-identical event payloads in the same order.
	resp, err := http.Get(sh.ts.URL + "/v1/queries/" + local + "/results?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var direct []string
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		direct = append(direct, line)
		if strings.Contains(line, `"kind":"end"`) {
			break
		}
	}
	if len(direct) != len(relayed) {
		t.Fatalf("direct read has %d events, relay %d", len(direct), len(relayed))
	}
	for i := range direct {
		if got := strings.TrimSpace(string(relayed[i].Event)); got != direct[i] {
			t.Fatalf("event %d differs through the relay:\n relay: %s\ndirect: %s", i, got, direct[i])
		}
	}

	// Ack the last match through the router; the shard's cursor must move.
	var lastSeq int64 = -1
	for _, ev := range relayed {
		var p struct {
			Kind     string `json:"kind"`
			EventSeq int64  `json:"event_seq"`
		}
		if err := json.Unmarshal(ev.Event, &p); err != nil {
			t.Fatal(err)
		}
		if p.Kind == "match" {
			lastSeq = p.EventSeq
		}
	}
	if lastSeq < 0 {
		t.Fatal("no match events relayed")
	}
	if !ackVia(t, rts.URL, fid, lastSeq) {
		t.Fatalf("ack via router failed for %s seq %d", fid, lastSeq)
	}
	row, err := http.Get(rts.URL + "/v1/queries/" + fid)
	if err != nil {
		t.Fatal(err)
	}
	defer row.Body.Close()
	var status struct {
		ID    string `json:"id"`
		Shard string `json:"shard"`
		Acked int64  `json:"acked"`
	}
	if err := json.NewDecoder(row.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.ID != fid || status.Shard != "solo" {
		t.Fatalf("status row = %+v, want id %s on shard solo", status, fid)
	}
	if status.Acked != lastSeq {
		t.Fatalf("acked = %d, want %d (ack is through the sequence)", status.Acked, lastSeq)
	}
}

// TestRouterRelaysNonFiniteWindowToEnd: a window whose control variate
// fits its samples exactly carries CV.Reduction = +Inf, which JSON cannot
// encode. The shard writes it as null, so the relay passes the window
// through and finishes on the stream's end event instead of treating
// the stream as severed and reconnecting to it forever.
func TestRouterRelaysNonFiniteWindowToEnd(t *testing.T) {
	d := newShardDirectory()
	sh := startShard(t, d, "solo", "", server.Config{})
	defer sh.srv.Close()
	defer sh.ts.Close()
	_, rts := startRouter(t, testRouterConfig(d, sh))

	// Stream seed 3 under the sim feed's default filter, three samples per
	// 20-frame window with sampler seed 5: the first window fits exactly.
	createFeedVia(t, rts.URL, map[string]any{
		"name": "cam1", "profile": "jackson", "source": "sim", "seed": 3, "max_frames": 100,
	})
	fid := registerVia(t, rts.URL,
		"SELECT COUNT(FRAMES) FROM cam1 WHERE COUNT(car) >= 1 WINDOW HOPPING (SIZE 20, ADVANCE BY 20)",
		map[string]any{"samples": 3, "seed": 5})

	sc := openStream(t, rts.URL+"/v1/queries/"+fid+"/results?from=0")
	windows, exact := 0, 0
	for {
		ev, ok := sc.next(t, 10*time.Second)
		if !ok {
			t.Fatal("stream closed before end event")
		}
		switch ev.Kind {
		case "shard_down", "shard_up", "relay_failed":
			t.Fatalf("relay treated the stream as severed: %+v", ev)
		case "window":
			windows++
			if strings.Contains(string(ev.Event), `"Reduction":null`) {
				exact++
			}
		}
		if ev.Kind == "end" {
			break
		}
	}
	if windows != 5 || exact == 0 {
		t.Fatalf("relayed %d windows, %d with an exact fit; want 5 and at least 1", windows, exact)
	}
	for _, sm := range routerMetricsOf(t, rts.URL).Shards {
		if sm.Resumes != 0 {
			t.Fatalf("shard %s: relay resumed %d times", sm.Name, sm.Resumes)
		}
	}
}

// TestRouterRefusesRecoveringShard: a shard answering healthz with 503
// {"status":"recovering"} is probed into the "recovering" state, refuses
// new registrations with 503 shard_unavailable, and degrades the
// router's aggregate healthz.
func TestRouterRefusesRecoveringShard(t *testing.T) {
	d := newShardDirectory()
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/healthz") {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"recovering"}`)
			return
		}
		http.Error(w, "not ready", http.StatusServiceUnavailable)
	}))
	defer stub.Close()
	d.set("slow.shard", stub.Listener.Addr().String())

	cfg := testRouterConfig(d)
	cfg.Shards = []ShardInfo{{Name: "slow", URL: "http://slow.shard"}}
	_, rts := startRouter(t, cfg)

	waitShardState(t, rts.URL, "slow", "recovering")

	resp, err := http.Post(rts.URL+"/v1/queries", "text/plain",
		strings.NewReader("SELECT FRAMES FROM cam1 WHERE COUNT(car) >= 0"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("register on recovering shard: HTTP %d, want 503", resp.StatusCode)
	}
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != "shard_unavailable" {
		t.Fatalf("error code = %q, want shard_unavailable", envelope.Error.Code)
	}

	hz, err := http.Get(rts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router healthz = HTTP %d with a recovering shard, want 503", hz.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
		Shards []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Fatalf("router status = %q, want degraded", health.Status)
	}
	if len(health.Shards) != 1 || health.Shards[0].State != "recovering" {
		t.Fatalf("healthz shards = %+v, want slow recovering", health.Shards)
	}
}

// TestRouterBreakerOpensOnDeadShard: probes against an unreachable
// shard trip the breaker, the shard reports "down", and the breaker
// state is visible in metrics.
func TestRouterBreakerOpensOnDeadShard(t *testing.T) {
	d := newShardDirectory() // "ghost.shard" never mapped: dials refuse
	cfg := testRouterConfig(d)
	cfg.Shards = []ShardInfo{{Name: "ghost", URL: "http://ghost.shard"}}
	_, rts := startRouter(t, cfg)

	// "down" appears on the first unreachable probe; keep polling until
	// the breaker itself has tripped open.
	deadline := time.Now().Add(5 * time.Second)
	var sm ShardMetrics
	for {
		for _, s := range routerMetricsOf(t, rts.URL).Shards {
			if s.Name == "ghost" {
				sm = s
			}
		}
		if sm.Trips >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never tripped; metrics %+v", sm)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if sm.State != "down" {
		t.Fatalf("state = %q with a tripped breaker, want down", sm.State)
	}
	// Probe failures count toward the trip, but so does every other
	// transport failure (load fetches included), so only assert the
	// prober saw the outage at all.
	if sm.ProbeFailures < 1 {
		t.Fatalf("probe_failures = %d, want >= 1", sm.ProbeFailures)
	}
}
