// Package memo is the frame-keyed latch behind the server's shared
// scans: filters.Shared memoises filter outputs and detect.Memo
// confirmation detections through it, so N queries on one feed pay one
// evaluation per frame.
package memo

import (
	"sync"
	"sync/atomic"

	"vmq/internal/video"
)

// DefaultCapacity is the cache size New selects for a non-positive
// capacity: comfortably above the skew the server's bounded fan-out
// channels permit between queries on one feed.
const DefaultCapacity = 4096

// Cache latches one value per frame. The caller that claims a frame first
// owns filling it; every later caller blocks until the value is filled
// and shares it. Entries are keyed by frame pointer (the fan-out tee
// delivers the same *Frame to every subscriber) and evicted
// first-in-first-out once the cache exceeds its capacity. Eviction never
// breaks correctness — a caller trailing further behind than the capacity
// simply claims and fills the frame again — so the capacity only needs
// to cover the skew between the callers.
type Cache[V any] struct {
	capacity int

	mu      sync.Mutex
	entries map[*video.Frame]*Entry[V]
	order   []*video.Frame // FIFO eviction queue

	hits   atomic.Int64
	misses atomic.Int64
}

// Entry latches one frame's value. If the owner's fill panics, the entry
// is poisoned with the panic value and leaves the cache: waiters re-panic
// with the same value instead of blocking forever on a latch nobody will
// release, and a later claim retries rather than replaying the fault.
type Entry[V any] struct {
	ready  chan struct{}
	val    V
	poison any
}

// New returns a cache of the given capacity in frames (non-positive
// selects DefaultCapacity).
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache[V]{capacity: capacity, entries: make(map[*video.Frame]*Entry[V], capacity)}
}

// Claim returns f's entry and whether the caller owns filling it (true
// exactly once per cached lifetime of the frame, counted as a miss; every
// other claim counts as a hit). An owner must call Fill for the entry.
func (c *Cache[V]) Claim(f *video.Frame) (*Entry[V], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[f]; ok {
		c.hits.Add(1)
		return e, false
	}
	c.misses.Add(1)
	e := &Entry[V]{ready: make(chan struct{})}
	c.entries[f] = e
	c.order = append(c.order, f)
	if len(c.order) > c.capacity {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	return e, true
}

// Wait blocks until the entry is filled and returns its value, re-panicking
// with the owner's panic value if the fill failed.
func (e *Entry[V]) Wait() V {
	<-e.ready
	if e.poison != nil {
		panic(e.poison)
	}
	return e.val
}

// Fill runs eval, which returns one value per entry, and latches them on
// the entries the caller claimed for frames. If eval panics, every entry
// is poisoned and removed and the panic propagates to the caller.
func (c *Cache[V]) Fill(frames []*video.Frame, entries []*Entry[V], eval func() []V) {
	vals, p := try(eval)
	if p != nil {
		for i, e := range entries {
			c.poison(frames[i], e, p)
		}
		panic(p)
	}
	for i, e := range entries {
		e.val = vals[i]
		close(e.ready)
	}
}

// Do returns f's value, running eval to fill it when the caller is first
// to claim the frame and waiting for the owner otherwise.
func (c *Cache[V]) Do(f *video.Frame, eval func() V) V {
	e, owned := c.Claim(f)
	if !owned {
		return e.Wait()
	}
	v, p := try(eval)
	if p != nil {
		c.poison(f, e, p)
		panic(p)
	}
	e.val = v
	close(e.ready)
	return v
}

// poison releases e's waiters with the panic value p and drops e from the
// cache (unless eviction already replaced it).
func (c *Cache[V]) poison(f *video.Frame, e *Entry[V], p any) {
	e.poison = p
	close(e.ready)
	c.mu.Lock()
	if cur, ok := c.entries[f]; ok && cur == e {
		delete(c.entries, f)
	}
	c.mu.Unlock()
}

// Stats reports claims served from the cache (hits) and claims that had
// to fill their frame (misses) so far.
func (c *Cache[V]) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Entries reports how many frames are currently memoised. It never
// exceeds the capacity: a long-running feed's memo reaches steady state
// instead of retaining every frame it ever saw.
func (c *Cache[V]) Entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// try runs fn, converting a panic into a returned value.
func try[T any](fn func() T) (v T, p any) {
	defer func() { p = recover() }()
	return fn(), nil
}
