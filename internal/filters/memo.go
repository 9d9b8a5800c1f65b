package filters

import (
	"sync"

	"vmq/internal/memo"
	"vmq/internal/video"
)

// Shared wraps a Backend with a bounded per-frame output cache, turning N
// query pipelines that scan the same feed into one shared scan: whichever
// pipeline reaches a frame first runs the network (and pays its virtual
// cost); every other pipeline gets the cached Output for free. This is
// sound for exactly the backends the pipelined executor can fan out — the
// output must depend only on the frame, not on call order — and the
// calibrated backends document that property. A backend that is not
// concurrency-safe is still usable: Shared serialises its calls and the
// memoisation makes the combination safe to share across goroutines.
//
// Shared is batch-aware: EvaluateBatch claims every uncached frame of the
// batch in one pass and fills the memo with a single inner batch
// evaluation, so a query pipeline's chunk pays batched GEMM rates while
// the other queries' lookups of the same frames stay cheap hits.
//
// The cache is a memo.Cache: keyed by frame pointer, evicted FIFO, and
// poisoned (not wedged) by a panicking inner evaluation — waiters
// re-panic with the same value, and each query's pipeline barrier turns
// that into its own typed failure.
type Shared struct {
	inner  Backend
	serial bool // inner is not concurrency-safe: serialise its calls
	evalMu sync.Mutex
	memo   *memo.Cache[*Output]
}

// NewShared wraps inner with a cache of the given capacity (frames;
// non-positive selects memo.DefaultCapacity).
func NewShared(inner Backend, capacity int) *Shared {
	return &Shared{inner: inner, serial: !ConcurrentSafe(inner), memo: memo.New[*Output](capacity)}
}

// Inner returns the wrapped backend.
func (s *Shared) Inner() Backend { return s.inner }

// Technique implements Backend.
func (s *Shared) Technique() Technique { return s.inner.Technique() }

// Grid implements Backend.
func (s *Shared) Grid() int { return s.inner.Grid() }

// ConcurrentSafe implements ConcurrentBackend: the cache is mutex-guarded
// and inner calls are serialised when the inner backend needs it, so
// Shared may always be fanned out.
func (s *Shared) ConcurrentSafe() bool { return true }

// Stats reports cache hits (outputs served without an inner evaluation)
// and misses (inner evaluations) so far.
func (s *Shared) Stats() (hits, misses int64) { return s.memo.Stats() }

// Entries reports how many frames are currently memoised (never more than
// the construction capacity).
func (s *Shared) Entries() int { return s.memo.Entries() }

// Evaluate implements Backend. The first caller for a frame evaluates the
// inner backend (charging its clock once); concurrent callers for the
// same frame block until that evaluation completes and then share its
// output.
func (s *Shared) Evaluate(f *video.Frame) *Output {
	return s.memo.Do(f, func() *Output {
		if s.serial {
			s.evalMu.Lock()
			defer s.evalMu.Unlock()
		}
		return s.inner.Evaluate(f)
	})
}

// EvaluateBatch implements BatchBackend: uncached frames are claimed in
// one pass and evaluated through the inner backend's batch path in a
// single call (one clock transaction, batched GEMMs for the trained
// backends); cached frames are served from the memo. Appends to dst per
// the interface's aliasing rule. Concurrent batches racing over
// overlapping frames each evaluate only the frames they claimed first,
// then wait for the rest — every frame is still evaluated exactly once
// per cached lifetime.
func (s *Shared) EvaluateBatch(frames []*video.Frame, dst []*Output) []*Output {
	if len(frames) == 0 {
		return dst
	}
	entries := make([]*memo.Entry[*Output], len(frames))
	var ownedFrames []*video.Frame
	var ownedEntries []*memo.Entry[*Output]
	for i, f := range frames {
		e, owned := s.memo.Claim(f)
		entries[i] = e
		if owned {
			ownedFrames = append(ownedFrames, f)
			ownedEntries = append(ownedEntries, e)
		}
	}
	if len(ownedFrames) > 0 {
		// Fill owned entries before waiting on anyone else's: claim order
		// guarantees another batch can only be waiting on entries we own,
		// never the reverse cyclically, so this cannot deadlock.
		s.memo.Fill(ownedFrames, ownedEntries, func() []*Output {
			if s.serial {
				s.evalMu.Lock()
				defer s.evalMu.Unlock()
			}
			return EvaluateBatchInto(s.inner, ownedFrames, nil)
		})
	}
	for _, e := range entries {
		dst = append(dst, e.Wait())
	}
	return dst
}
