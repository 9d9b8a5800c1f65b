package main

import (
	"testing"
	"time"

	"vmq/internal/rlog"
	"vmq/internal/server"
)

// fakeClock advances only when the generator sleeps or a publish stalls.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time { return c.t }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

// A publish that stalls (the ingest ring is full because a consumer
// stopped reading) must make every later frame late against its due
// time; the generator must not re-time the schedule around the stall.
func TestGeneratorChargesStallToLaterFrames(t *testing.T) {
	ck := &fakeClock{t: time.Unix(0, 0)}
	s := schedule{t0: ck.t, period: 10 * time.Millisecond, feeds: 1}
	var published []int
	late, err := generate(s, 6, ck, func(_, k int) error {
		published = append(published, k)
		if k == 2 {
			ck.t = ck.t.Add(100 * time.Millisecond) // Publish blocked for 100ms
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 0, 90, 80, 70}
	if len(late) != len(want) || len(published) != len(want) {
		t.Fatalf("late = %v, published = %v; want %d frames", late, published, len(want))
	}
	for k := range want {
		if late[k] != want[k] {
			t.Errorf("frame %d late %vms, want %vms (all: %v)", k, late[k], want[k], late)
		}
	}
}

// Feeds interleave on the schedule: feed i's frame k is due period/feeds
// after feed i-1's.
func TestScheduleSpreadsFeeds(t *testing.T) {
	s := schedule{t0: time.Unix(0, 0), period: 30 * time.Millisecond, feeds: 3}
	for _, c := range []struct{ k, i int }{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {2, 1}} {
		got := s.due(c.k, c.i).Sub(s.t0)
		want := time.Duration(c.k)*30*time.Millisecond + time.Duration(c.i)*10*time.Millisecond
		if got != want {
			t.Errorf("due(%d, %d) = %v, want %v", c.k, c.i, got, want)
		}
	}
}

// A consumer that stalls before reading sees every event late by the
// stall, measured from the frame's due time — not from when the event
// reached the result log, which here is immediate.
func TestLatencyFromDueTimeUnderStalledConsumer(t *testing.T) {
	const frames = 5
	const stall = 60 * time.Millisecond
	epoch := time.Now()
	due := func(idx int) int64 { return int64(time.Duration(idx) * time.Millisecond) }
	log := rlog.New[server.Event](64, rlog.Block)
	for k := 0; k < frames; k++ {
		log.Append(server.Event{Kind: server.EventMatch, EventSeq: int64(k), Seq: k}, true, nil)
	}
	log.Append(server.Event{Kind: server.EventEnd, EventSeq: frames}, false, nil)
	log.Close()

	rd := log.ReaderFrom(0)
	time.Sleep(stall) // the consumer is stalled; nothing is read yet
	r := newReceiver(&querySpec{truth: make([]bool, frames)})
	consumeLocal(rd, r, epoch, due, true, nil)

	if len(r.lat) != frames {
		t.Fatalf("got %d latency samples, want %d", len(r.lat), frames)
	}
	for k, x := range r.lat {
		floor := float64(stall-time.Duration(k)*time.Millisecond) / 1e6
		if x.ms < floor || x.at != due(k) {
			t.Errorf("frame %d latency %.2fms from %dns, want at least %.2fms from its due time %dns", k, x.ms, x.at, floor, due(k))
		}
	}
	if len(r.canon) != frames+1 || r.gaps != 0 {
		t.Errorf("consumer read %d events with %d gaps, want %d and none", len(r.canon), r.gaps, frames+1)
	}
}
