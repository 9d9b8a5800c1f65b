// Package stream provides the streaming plumbing of Section III: hopping
// and sliding windows over frame sequences (the paper's WINDOW HOPPING
// clause) and the frame samplers that back the Monte Carlo aggregate
// estimators — uniform random sampling without replacement, systematic
// sampling, and reservoir sampling for unbounded streams.
package stream

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"vmq/internal/video"
)

// ErrExhausted reports that a pull-based source ran out of frames before
// the caller got everything it asked for. Window builders wrap it with
// positional detail; callers test with errors.Is.
var ErrExhausted = errors.New("stream: source exhausted")

// Source yields frames one at a time. Next returns the next frame and
// true, or (nil, false) once the source is exhausted; after the first
// false return every subsequent call must also return false. Unbounded
// generators (such as the frame simulator) never return false — wrap them
// with FromStream.
type Source interface {
	Next() (*video.Frame, bool)
}

// streamSource adapts the unbounded frame simulator to Source.
type streamSource struct{ s *video.Stream }

func (ss streamSource) Next() (*video.Frame, bool) { return ss.s.Next(), true }

// FromStream adapts a *video.Stream (an unbounded generator) to Source.
func FromStream(s *video.Stream) Source { return streamSource{s} }

// Take pulls up to n frames from src, stopping early on exhaustion. Only
// the first frame is waited for: after it, a source that reports its
// buffered frames (Depth, as a Subscription or PushSource does) is read
// only while it holds some, so Take never waits for a frame that has not
// arrived. A source without Depth counts as always ready.
func Take(src Source, n int) []*video.Frame {
	buffered, live := src.(interface{ Depth() int })
	out := make([]*video.Frame, 0, n)
	for i := 0; i < n; i++ {
		if live && i > 0 && buffered.Depth() == 0 {
			break
		}
		f, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, f)
	}
	return out
}

// Window is a contiguous batch of frames.
type Window struct {
	Start  int // index of the first frame in the stream
	Frames []*video.Frame
}

// HoppingWindows partitions the next n·size frames of src into n windows
// of the given size advancing by advance frames (the paper's
// WINDOW HOPPING (SIZE s, ADVANCE BY a)). When advance == size the windows
// tile the stream (a batch window). advance > size skips frames; advance
// < size is rejected because a pull-based source cannot rewind. If src
// runs out before n full windows are built, the complete windows are
// returned alongside an error wrapping ErrExhausted. The gap after the
// final window is consumed too (so repeated calls on a shared source stay
// on the ADVANCE grid), but running dry inside that trailing gap is not
// an error — every requested window is already complete.
func HoppingWindows(src Source, size, advance, n int) ([]Window, error) {
	if size <= 0 || advance <= 0 || n <= 0 {
		return nil, fmt.Errorf("stream: invalid window spec size=%d advance=%d n=%d", size, advance, n)
	}
	if advance < size {
		return nil, fmt.Errorf("stream: overlapping hopping windows (advance %d < size %d) need a buffered source", advance, size)
	}
	out := make([]Window, 0, n)
	pos := 0
	for w := 0; w < n; w++ {
		win := Window{Start: pos, Frames: make([]*video.Frame, 0, size)}
		for i := 0; i < size; i++ {
			f, ok := src.Next()
			if !ok {
				return out, fmt.Errorf("%w: window %d of %d needs %d frames, got %d", ErrExhausted, w+1, n, size, i)
			}
			win.Frames = append(win.Frames, f)
		}
		pos += size
		out = append(out, win)
		for i := size; i < advance; i++ {
			if _, ok := src.Next(); !ok {
				if w == n-1 {
					return out, nil // all windows complete; only the trailing gap ran dry
				}
				return out, fmt.Errorf("%w: in the gap before window %d of %d", ErrExhausted, w+2, n)
			}
			pos++
		}
	}
	return out, nil
}

// SlidingWindows materialises n overlapping windows of the given size
// advancing by advance frames (advance < size allowed), buffering the
// overlap so the pull-based source is read exactly once. It complements
// HoppingWindows, which streams non-overlapping batches without buffering.
// If src runs out early, the complete windows are returned alongside an
// error wrapping ErrExhausted.
func SlidingWindows(src Source, size, advance, n int) ([]Window, error) {
	if size <= 0 || advance <= 0 || n <= 0 {
		return nil, fmt.Errorf("stream: invalid window spec size=%d advance=%d n=%d", size, advance, n)
	}
	if advance >= size {
		return HoppingWindows(src, size, advance, n)
	}
	out := make([]Window, 0, n)
	buf := make([]*video.Frame, 0, size)
	pos := 0 // stream index of buf[0]
	for w := 0; w < n; w++ {
		for len(buf) < size {
			f, ok := src.Next()
			if !ok {
				return out, fmt.Errorf("%w: window %d of %d needs %d frames, got %d", ErrExhausted, w+1, n, size, len(buf))
			}
			buf = append(buf, f)
		}
		frames := make([]*video.Frame, size)
		copy(frames, buf)
		out = append(out, Window{Start: pos, Frames: frames})
		buf = buf[:copy(buf, buf[advance:])]
		pos += advance
	}
	return out, nil
}

// Sampler selects a subset of frame indices from a window of length n.
type Sampler interface {
	// Sample returns k distinct indices in [0, n).
	Sample(n, k int) []int
}

// UniformSampler draws k indices uniformly without replacement.
type UniformSampler struct {
	rng *rand.Rand
}

// NewUniformSampler returns a deterministic uniform sampler.
func NewUniformSampler(seed uint64) *UniformSampler {
	return &UniformSampler{rng: rand.New(rand.NewPCG(seed, 0xa5a5a5a5a5a5a5a5))}
}

// Sample implements Sampler via a partial Fisher–Yates shuffle.
func (u *UniformSampler) Sample(n, k int) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + u.rng.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// SystematicSampler picks every n/k-th frame starting from a random
// offset — the usual choice for temporally correlated video where spread
// beats pure randomness.
type SystematicSampler struct {
	rng *rand.Rand
}

// NewSystematicSampler returns a deterministic systematic sampler.
func NewSystematicSampler(seed uint64) *SystematicSampler {
	return &SystematicSampler{rng: rand.New(rand.NewPCG(seed, 0x5bd1e9955bd1e995))}
}

// Sample implements Sampler.
func (s *SystematicSampler) Sample(n, k int) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	step := float64(n) / float64(k)
	off := s.rng.Float64() * step
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		idx := int(off + float64(i)*step)
		if idx >= n {
			idx = n - 1
		}
		out = append(out, idx)
	}
	return out
}

// StratifiedSampler divides the window into k contiguous temporal strata
// and draws one uniform index from each. For temporally correlated video
// (where neighbouring frames are nearly identical) stratification removes
// the between-strata component of the sampling variance, the classic
// variance-reduction result from the approximate-query-processing
// literature the paper builds on.
type StratifiedSampler struct {
	rng *rand.Rand
}

// NewStratifiedSampler returns a deterministic stratified sampler.
func NewStratifiedSampler(seed uint64) *StratifiedSampler {
	return &StratifiedSampler{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))}
}

// Sample implements Sampler: one uniform draw per stratum.
func (s *StratifiedSampler) Sample(n, k int) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		lo := i * n / k
		hi := (i + 1) * n / k
		if hi <= lo {
			hi = lo + 1
		}
		out = append(out, lo+s.rng.IntN(hi-lo))
	}
	return out
}

// Reservoir maintains a uniform sample of size k over an unbounded stream
// of items (classic Algorithm R).
type Reservoir[T any] struct {
	K     int
	Items []T
	seen  int
	rng   *rand.Rand
}

// NewReservoir creates a reservoir of capacity k.
func NewReservoir[T any](k int, seed uint64) *Reservoir[T] {
	return &Reservoir[T]{K: k, rng: rand.New(rand.NewPCG(seed, 0xc2b2ae3d27d4eb4f))}
}

// Offer presents one item to the reservoir.
func (r *Reservoir[T]) Offer(item T) {
	r.seen++
	if len(r.Items) < r.K {
		r.Items = append(r.Items, item)
		return
	}
	j := r.rng.IntN(r.seen)
	if j < r.K {
		r.Items[j] = item
	}
}

// Seen returns the number of items offered so far.
func (r *Reservoir[T]) Seen() int { return r.seen }

// SliceSource adapts a pre-materialised frame slice to Source. Next
// returns (nil, false) once the slice is exhausted.
type SliceSource struct {
	Frames []*video.Frame
	pos    int
}

// Next implements Source.
func (s *SliceSource) Next() (*video.Frame, bool) {
	if s.pos >= len(s.Frames) {
		return nil, false
	}
	f := s.Frames[s.pos]
	s.pos++
	return f, true
}

// Remaining returns how many frames are left.
func (s *SliceSource) Remaining() int { return len(s.Frames) - s.pos }
