package memo

import (
	"sync"
	"testing"

	"vmq/internal/video"
)

func frames(n int) []*video.Frame {
	return video.NewStream(video.Jackson(), 5).Take(n)
}

// Concurrent callers for one frame run eval once and share its value;
// the stats count one miss per frame and a hit for every other claim.
func TestCacheDoSharesOneEvaluation(t *testing.T) {
	c := New[int](0)
	fs := frames(16)
	var mu sync.Mutex
	evals := 0
	const callers = 6
	var wg sync.WaitGroup
	for q := 0; q < callers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range fs {
				got := c.Do(f, func() int {
					mu.Lock()
					evals++
					mu.Unlock()
					return f.Index
				})
				if got != f.Index {
					t.Errorf("frame %d: got %d", f.Index, got)
				}
			}
		}()
	}
	wg.Wait()
	if evals != len(fs) {
		t.Fatalf("eval ran %d times for %d frames", evals, len(fs))
	}
	if hits, misses := c.Stats(); misses != int64(len(fs)) || hits != int64((callers-1)*len(fs)) {
		t.Fatalf("stats = %d hits / %d misses", hits, misses)
	}
}

// A fill that panics poisons every entry it claimed: a waiter re-panics
// with the same value instead of blocking, the entries leave the cache,
// and the next claim retries.
func TestCacheFillPanicPoisonsAndRetries(t *testing.T) {
	c := New[int](0)
	fs := frames(3)
	e0, own0 := c.Claim(fs[0])
	e1, own1 := c.Claim(fs[1])
	if !own0 || !own1 {
		t.Fatal("first claims must own their entries")
	}
	waiter, owned := c.Claim(fs[1])
	if owned || waiter != e1 {
		t.Fatal("second claim must share the pending entry")
	}
	waited := make(chan any, 1)
	go func() {
		defer func() { waited <- recover() }()
		waiter.Wait()
	}()
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Errorf("owner recovered %v, want boom", p)
			}
		}()
		c.Fill(fs[:2], []*Entry[int]{e0, e1}, func() []int { panic("boom") })
	}()
	if p := <-waited; p != "boom" {
		t.Fatalf("waiter recovered %v, want boom", p)
	}
	if n := c.Entries(); n != 0 {
		t.Fatalf("%d poisoned entries left in the cache", n)
	}
	if got := c.Do(fs[0], func() int { return 7 }); got != 7 {
		t.Fatalf("retry after poisoning = %d, want 7", got)
	}
	func() {
		defer func() {
			if p := recover(); p != "solo" {
				t.Errorf("Do recovered %v, want solo", p)
			}
		}()
		c.Do(fs[2], func() int { panic("solo") })
	}()
	if got := c.Do(fs[2], func() int { return 9 }); got != 9 {
		t.Fatalf("retry after a panicking Do = %d, want 9", got)
	}
}

// Entries are evicted first-in-first-out beyond the capacity: the
// evicted frame is filled again, the retained ones are hits.
func TestCacheEvictsFIFO(t *testing.T) {
	c := New[int](2)
	fs := frames(3)
	evals := 0
	eval := func() int { evals++; return evals }
	for _, f := range fs {
		c.Do(f, eval)
	}
	if n := c.Entries(); n != 2 {
		t.Fatalf("entries = %d, want capacity 2", n)
	}
	c.Do(fs[2], eval)
	if evals != 3 {
		t.Fatalf("newest frame re-evaluated (%d evals)", evals)
	}
	c.Do(fs[0], eval)
	if evals != 4 {
		t.Fatalf("evicted frame served from cache (%d evals)", evals)
	}
}
