package query

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"vmq/internal/fault"
	"vmq/internal/filters"
	"vmq/internal/stream"
	"vmq/internal/video"
)

// streamChunk is the unit of work flowing through the pipeline: a run of
// consecutive frames starting at stream index start. Chunking amortises
// channel operations and lets backends batch via filters.EvaluateBatch.
// A chunk is the first frame the source yields plus whatever the source
// already holds, up to the chunk size (see stream.Take).
type streamChunk struct {
	seq    int // chunk sequence number, for ordered reassembly
	start  int // stream index of frames[0]
	frames []*video.Frame
	pass   []bool // filter verdicts, set by the filter stage
}

// defaultChunkSize balances channel overhead against pipeline latency:
// large enough that per-chunk costs vanish next to filter evaluation,
// small enough that the worker pool stays busy on short queries.
const defaultChunkSize = 32

// RunStream executes a bound monitoring query over up to n frames pulled
// from src, overlapping the pipeline stages the sequential loop
// interleaves:
//
//	source -> filter workers (fan-out) -> reorder -> detector (in order)
//
// The source stage pulls frames and groups them into chunks, never
// holding a frame back to wait for batch-mates that have not arrived; a
// pool of filter workers (GOMAXPROCS-wide when the backend declares itself
// concurrency-safe, one otherwise) evaluates the filter stage; chunks are
// reassembled in stream order; and the detector stage confirms surviving
// frames sequentially on the caller's goroutine. All channels are
// bounded, so a slow detector back-pressures the source instead of
// buffering the whole stream.
//
// The result is identical — field for field, including Matched order and
// VirtualTime — to RunSequential over the same frames: the filter output
// of the deterministic backends depends only on the frame, the detector
// (whose RNG, if any, is call-order sensitive) always runs in frame
// order on a single goroutine, and virtual-time accounting is the same
// arithmetic over the same per-frame decisions. A short source ends the
// query gracefully: FramesTotal reports the frames actually seen.
func (e *Engine) RunStream(plan *Plan, src stream.Source, n int) *Result {
	res := &Result{}
	if n <= 0 {
		return res
	}
	filtering := e.Backend != nil && plan.Where != nil
	workers := 1
	if filtering && filters.ConcurrentSafe(e.Backend) {
		workers = runtime.GOMAXPROCS(0)
		if e.Workers > 0 && e.Workers < workers {
			workers = e.Workers
		}
	}
	// With a gate the pool is spawned wide and the gate bounds how many
	// workers evaluate at once: capacity changes (the server rebalancing
	// its budget across feeds) take effect mid-run, which a fixed pool
	// size cannot.
	gate := e.Gate
	if workers == 1 {
		gate = nil // a serial stage needs no admission control
	}
	chunkSize := e.ChunkSize
	if chunkSize <= 0 {
		chunkSize = defaultChunkSize
	}

	// tokens bounds the chunks in flight between the source and the
	// reorder stage. Without it a single stalled worker lets the others
	// keep cycling: the reorder buffer would absorb every finished chunk
	// while waiting for the stalled one, growing without bound. A token
	// is taken per chunk read and returned when the chunk leaves the
	// reorder stage, so total buffered memory stays O(workers·chunkSize)
	// no matter how unevenly the workers run.
	maxInflight := 3*workers + 2
	tokens := make(chan struct{}, maxInflight)

	// failure latches the first panic recovered in any stage. Once set,
	// the source stops pulling, filter workers pass chunks through
	// unevaluated, and the confirmation stage drains without confirming —
	// the pipeline unwinds cleanly and the caller gets a Result carrying
	// the Failure instead of a crashed process. One poisoned backend must
	// cost one query, never the server hosting it.
	var failure atomic.Pointer[Failure]
	fail := func(stage string, p any) {
		failure.CompareAndSwap(nil, &Failure{
			Stage: stage,
			Panic: fmt.Sprint(p),
			Stack: string(debug.Stack()),
		})
	}

	// Stage 1: pull frames from the source and chunk them.
	jobs := make(chan *streamChunk, workers)
	go func() {
		defer close(jobs)
		for seq, start := 0, 0; start < n; seq++ {
			if failure.Load() != nil {
				return // a stage faulted: stop feeding the pipeline
			}
			tokens <- struct{}{}
			frames := stream.Take(src, min(chunkSize, n-start))
			if len(frames) == 0 {
				return // source exhausted
			}
			jobs <- &streamChunk{seq: seq, start: start, frames: frames}
			start += len(frames)
		}
	}()

	// Stage 2: filter fan-out. Each worker evaluates whole chunks through
	// the backend's batch path — one clock transaction and, for the
	// trained backends, one GEMM per layer per chunk — into a per-worker
	// scratch slice reused across chunks (the EvaluateBatchInto aliasing
	// rule), so the steady-state filter stage allocates only the verdict
	// slices that travel with the chunk.
	filtered := make(chan *streamChunk, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var outs []*filters.Output // per-worker scratch, reused every chunk
			for c := range jobs {
				c.pass = make([]bool, len(c.frames))
				if !filtering {
					for i := range c.pass {
						c.pass[i] = true
					}
					filtered <- c
					continue
				}
				if gate != nil {
					gate.Acquire()
				}
				func() {
					defer func() {
						if gate != nil {
							gate.Release()
						}
						if p := recover(); p != nil {
							// A panicking backend poisons this query, not the
							// process: latch the failure, void the verdicts,
							// and keep the chunk moving so reassembly never
							// stalls on a missing sequence number.
							fail("filter", p)
							outs = nil
							for i := range c.pass {
								c.pass[i] = false
							}
						}
					}()
					if failure.Load() != nil {
						return // already failed: forward unevaluated
					}
					if err := fault.Hit("query.filter"); err != nil {
						panic(err)
					}
					outs = filters.EvaluateBatchInto(e.Backend, c.frames, outs[:0])
					for i, f := range c.frames {
						c.pass[i] = plan.Where.EvalFilter(outs[i], f.Bounds, e.Tol)
					}
				}()
				filtered <- c
			}
		}()
	}
	go func() {
		wg.Wait()
		close(filtered)
	}()

	// Stage 3: reassemble chunks in stream order. The token bound caps
	// how many chunks can be waiting here for a straggler, so memory
	// stays bounded even when one worker runs far behind its peers.
	ordered := make(chan *streamChunk, workers)
	go func() {
		defer close(ordered)
		pending := make(map[int]*streamChunk, maxInflight)
		next := 0
		for c := range filtered {
			pending[c.seq] = c
			for {
				head, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				ordered <- head
				<-tokens
			}
		}
	}()

	// Stage 4: confirm survivors with the detector, in frame order, on
	// this goroutine — the only stage that may carry order-sensitive
	// state (e.g. SimYOLO's RNG).
	var filterCost time.Duration
	if filtering {
		filterCost = e.Backend.Technique().Cost().PerCall
	}
	detectCost := e.Detector.Cost().PerCall
	for c := range ordered {
		if failure.Load() != nil {
			continue // drain so the pipeline unwinds; nothing more confirms
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					fail("detect", p)
				}
			}()
			for i, f := range c.frames {
				res.FramesTotal++
				if filtering {
					res.VirtualTime += filterCost
				}
				matched := false
				if c.pass[i] {
					res.FilterPassed++
					if err := fault.Hit("query.detect"); err != nil {
						panic(err)
					}
					dets := e.Detector.Detect(f)
					res.DetectorCalls++
					res.VirtualTime += detectCost
					if plan.Where == nil || plan.Where.EvalExact(dets, f.Bounds) {
						res.Matched = append(res.Matched, c.start+i)
						matched = true
					}
				}
				if e.Observe != nil {
					e.Observe(FrameObservation{Index: c.start + i, Frame: f, Passed: c.pass[i], Matched: matched})
				}
			}
		}()
	}
	res.Failure = failure.Load()
	return res
}
