package filters

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"vmq/internal/nn"
)

// Cross-feed coalescing identity
//
// A server hosting many camera feeds often serves them all with the same
// trained network (one model, N cameras). Each feed still owns its memo
// and its queries' chunks, but the underlying GEMMs can be merged across
// feeds — if and only if it is safe to push feed A's frames through feed
// B's backend instance. Coalescable makes that contract explicit: the key
// fingerprints everything the evaluation depends on (architecture, trained
// weights, rasterisation parameters, cost accounting), so equal keys mean
// interchangeable backends.

// Coalescable is implemented by batch backends whose evaluations may be
// merged with those of other instances sharing the same key. Implementors
// promise that two backends with equal keys produce bit-identical Outputs
// for any frame and charge costs to the same clock, so a cross-feed
// scheduler may evaluate either instance's frames through the other.
type Coalescable interface {
	BatchBackend
	// CoalesceKey returns the backend's non-empty architecture/weights
	// identity. It is computed once and cached: backends must not be
	// retrained or have weights reloaded while being served.
	CoalesceKey() string
}

// CoalesceKeyOf returns b's coalescing identity, or "" when b does not
// declare one (then it must never be coalesced).
func CoalesceKeyOf(b Backend) string {
	if c, ok := b.(Coalescable); ok {
		return c.CoalesceKey()
	}
	return ""
}

// hashParams folds every parameter tensor (shape and bit-exact values)
// into h.
func hashParams(h io.Writer, params []*nn.Param) {
	var buf [4]byte
	for _, p := range params {
		for _, d := range p.Value.Shape {
			binary.LittleEndian.PutUint32(buf[:], uint32(d))
			h.Write(buf[:])
		}
		for _, v := range p.Value.Data {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
}

// CoalesceKey implements Coalescable: the identity covers the filter
// family, rasterisation geometry and noise seed, thresholding, the class
// universe, the clock costs are charged to, and an FNV-1a fingerprint of
// every trained weight. Separately trained networks that happen to share
// an architecture hash apart; the same saved model loaded into two
// instances hashes together.
func (t *Trained) CoalesceKey() string {
	t.keyOnce.Do(func() {
		h := fnv.New64a()
		fmt.Fprintf(h, "trained|%v|img=%d|thr=%g|noise=%d|classes=%v|clock=%p|",
			t.Tech, t.Img, t.Threshold, t.NoiseSeed, t.classes, t.Clock)
		hashParams(h, t.Net.Params())
		t.key = fmt.Sprintf("%v-cnn-%016x", t.Tech, h.Sum64())
	})
	return t.key
}

// CoalesceKey implements Coalescable for the count-only branch.
func (t *TrainedCOF) CoalesceKey() string {
	t.keyOnce.Do(func() {
		h := fnv.New64a()
		fmt.Fprintf(h, "cof|img=%d|noise=%d|clock=%p|", t.Img, t.NoiseSeed, t.Clock)
		hashParams(h, t.Net.Params())
		t.key = fmt.Sprintf("OD-cof-%016x", h.Sum64())
	})
	return t.key
}
