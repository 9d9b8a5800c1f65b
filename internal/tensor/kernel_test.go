package tensor

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// withEveryKernel runs f once per kernel level selectable on this CPU,
// restoring the auto-selected kernel afterwards. On amd64 this covers
// generic + sse (+ avx2/avx512 on modern hardware); elsewhere generic
// only. The tolerant fma level never appears here (these are the
// bit-exactness suites; fma is hidden while Tolerance() == 0).
func withEveryKernel(t *testing.T, f func(t *testing.T, kernel string)) {
	t.Helper()
	prev := Kernel()
	defer func() {
		if err := SetKernel(prev); err != nil {
			t.Fatal(err)
		}
	}()
	for _, name := range Kernels() {
		if impl, ok := archKernels()[name]; ok && impl.tolerant {
			// A process-wide opt-in (VMQ_KERNEL=fma) lists the tolerant
			// level; it has its own ULP-bound suite and must not join
			// the bit-exactness runs.
			continue
		}
		if err := SetKernel(name); err != nil {
			t.Fatal(err)
		}
		f(t, name)
	}
}

// ensureBitExact pins the default bit-exact kernel for the duration of a
// test that compares exactly against a naive reference, in case the
// process was started with the VMQ_KERNEL=fma opt-in (whose arithmetic is
// deliberately not bit-identical).
func ensureBitExact(t *testing.T) {
	t.Helper()
	if impl, ok := archKernels()[Kernel()]; ok && impl.tolerant {
		prev := Kernel()
		if err := SetKernel(defaultKernelName()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := SetKernel(prev); err != nil {
				t.Error(err)
			}
		})
	}
}

// awkwardFloats seeds inputs with the values where SIMD shortcuts diverge
// from scalar semantics if the kernel is not a true select: signed zeros,
// denormals (whose products underflow to signed zero), and values that
// straddle the activation threshold.
func awkwardFloats(rng *rand.Rand, dst []float32) {
	for i := range dst {
		switch rng.IntN(8) {
		case 0:
			dst[i] = 0
		case 1:
			dst[i] = float32(math.Copysign(0, -1))
		case 2:
			dst[i] = math.Float32frombits(uint32(1 + rng.IntN(16))) // tiny denormal
		case 3:
			dst[i] = -math.Float32frombits(uint32(1 + rng.IntN(16)))
		default:
			dst[i] = float32(rng.NormFloat64())
		}
	}
}

func requireBits(t *testing.T, label string, kernel string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: kernel %s diverges at %d: %g (%#x) vs %g (%#x)",
				label, kernel, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// Every compiled axpyQuad variant must produce bit-identical accumulators
// on ragged lengths covering all lane tails (0..67 spans the 8-wide body,
// the 4-wide body and every scalar remainder).
func TestAxpyQuadVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 0))
	for n := 0; n <= 67; n++ {
		b := make([]float32, n)
		d := make([][]float32, 4)
		awkwardFloats(rng, b)
		for r := range d {
			d[r] = make([]float32, n)
			awkwardFloats(rng, d[r])
		}
		vs := [4]float32{float32(rng.NormFloat64()), 0, float32(math.Copysign(0, -1)), float32(rng.NormFloat64())}

		want := make([][]float32, 4)
		for r := range want {
			want[r] = append([]float32(nil), d[r]...)
		}
		axpyQuadGeneric(want[0], want[1], want[2], want[3], b, vs[0], vs[1], vs[2], vs[3])

		withEveryKernel(t, func(t *testing.T, kernel string) {
			got := make([][]float32, 4)
			for r := range got {
				got[r] = append([]float32(nil), d[r]...)
			}
			axpyQuad(got[0], got[1], got[2], got[3], b, vs[0], vs[1], vs[2], vs[3])
			for r := range got {
				requireBits(t, "axpyQuad", kernel, got[r], want[r])
			}
		})
	}
}

// Every compiled epilogue variant must apply bias + activation with the
// exact select semantics of the scalar reference, including on signed
// zeros, denormal underflow (v*slope rounding to -0) and NaN.
func TestEpilogueVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	nan := float32(math.NaN())
	for n := 0; n <= 67; n++ {
		seg := make([]float32, n)
		awkwardFloats(rng, seg)
		if n > 0 {
			seg[rng.IntN(n)] = nan
		}
		for _, act := range []Act{ActNone, ActReLU, ActLeakyReLU} {
			for _, bias := range []float32{0, float32(math.Copysign(0, -1)), float32(rng.NormFloat64())} {
				want := append([]float32(nil), seg...)
				epilogueRowGeneric(want, bias, act, 0.1)
				withEveryKernel(t, func(t *testing.T, kernel string) {
					got := append([]float32(nil), seg...)
					epilogueRow(got, bias, act, 0.1)
					requireBits(t, "epilogue", kernel, got, want)
				})
			}
		}
	}
}

// Every compiled k=2 pooling row variant must reproduce the scalar fold —
// first tap wins ties (signed zeros) and NaN never displaces an earlier
// value — on ragged output widths covering every 8-wide tail.
func TestMaxPool2RowVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 0))
	nan := float32(math.NaN())
	for n := 0; n <= 67; n++ {
		// Rows end flush against an unmapped page where the platform
		// allows it, so a tail that loads or stores one lane too far
		// faults instead of passing.
		r0 := guardedFloats(t, 2*n)
		r1 := guardedFloats(t, 2*n)
		awkwardFloats(rng, r0)
		awkwardFloats(rng, r1)
		if n > 0 {
			r0[rng.IntN(2*n)] = nan
			r1[rng.IntN(2*n)] = nan
		}
		want := make([]float32, n)
		maxPool2RowGeneric(want, r0, r1)
		withEveryKernel(t, func(t *testing.T, kernel string) {
			got := guardedFloats(t, n)
			maxPool2Row(got, r0, r1)
			requireBits(t, "maxPool2Row", kernel, got, want)
		})
	}
}

// The full blocked GEMM must agree bit-for-bit with the naive reference
// under every kernel level — the end-to-end guarantee the per-lane tests
// above underwrite.
func TestGEMMBitIdenticalAcrossKernels(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 0))
	for trial := 0; trial < 8; trial++ {
		m := 1 + rng.IntN(9)
		k := 1 + rng.IntN(40)
		n := 1 + rng.IntN(150)
		a, b := New(m, k), New(k, n)
		a.RandN(rng, 1)
		b.RandN(rng, 1)
		bias := make([]float32, m)
		awkwardFloats(rng, bias)
		want := MatMul(a, b)
		epi := want.Clone()
		for i := 0; i < m; i++ {
			epilogueRowGeneric(epi.Data[i*n:(i+1)*n], bias[i], ActLeakyReLU, 0.1)
		}
		withEveryKernel(t, func(t *testing.T, kernel string) {
			requireBits(t, "MatMulInto", kernel, MatMulInto(nil, a, b).Data, want.Data)
			requireBits(t, "MatMulBiasAct", kernel,
				MatMulBiasAct(nil, a, b, bias, ActLeakyReLU, 0.1).Data, epi.Data)
		})
	}
}

// The rasteriser row primitives (Fill, AddClamp01) must be bit-identical
// across every selectable kernel level on ragged lengths covering the
// 16-wide, 8-wide and scalar tails, including out-of-range values (both
// clamps firing), signed zeros and NaN pass-through.
func TestFillAddClampVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(46, 0))
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	for n := 0; n <= 67; n++ {
		base := make([]float32, n)
		add := make([]float32, n)
		awkwardFloats(rng, base)
		awkwardFloats(rng, add)
		for i := range add {
			if rng.IntN(3) == 0 {
				add[i] *= 5 // force both clamp branches to fire
			}
		}
		if n > 0 {
			add[rng.IntN(n)] = nan
		}
		wantFill := make([]float32, n)
		fillRowGeneric(wantFill, negZero)
		wantClamp := append([]float32(nil), base...)
		addClampRowGeneric(wantClamp, add)
		withEveryKernel(t, func(t *testing.T, kernel string) {
			gotF := make([]float32, n)
			Fill(gotF, negZero)
			requireBits(t, "fill", kernel, gotF, wantFill)
			gotC := append([]float32(nil), base...)
			AddClamp01(gotC, add)
			requireBits(t, "addClamp01", kernel, gotC, wantClamp)
		})
	}
}

// orderedBits maps float32 bit patterns onto a line where adjacent
// representable values differ by 1, so ULP distances are plain integer
// differences. +0 and -0 map to the same point.
func orderedBits(f float32) int64 {
	u := int64(math.Float32bits(f))
	if u&0x80000000 != 0 {
		u = 0x80000000 - u
	}
	return u
}

func ulpDiff(a, b float32) int64 {
	if a == b {
		return 0
	}
	d := orderedBits(a) - orderedBits(b)
	if d < 0 {
		d = -d
	}
	return d
}

// The fma level is explicitly not bit-exact, so its suite asserts a ULP
// bound instead of bit equality: every accumulator element must land
// within 1 ULP of an exactly-fused float64 reference (math.FMA rounded to
// float32 — itself within 1 ULP of the correctly rounded float32 fused
// result, from double rounding).
func TestFMAAxpyWithinULPBound(t *testing.T) {
	if _, ok := archKernels()["fma"]; !ok {
		t.Skip("no fma kernel level on this CPU")
	}
	prevK := Kernel()
	prevTol := SetTolerance(2)
	defer func() {
		if err := SetKernel(prevK); err != nil {
			t.Error(err)
		}
		SetTolerance(prevTol)
	}()
	if err := SetKernel("fma"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(45, 0))
	for n := 0; n <= 67; n++ {
		b := make([]float32, n)
		awkwardFloats(rng, b)
		d := make([][]float32, 4)
		for r := range d {
			d[r] = make([]float32, n)
			awkwardFloats(rng, d[r])
		}
		vs := [4]float32{float32(rng.NormFloat64()), 0, float32(math.Copysign(0, -1)), float32(rng.NormFloat64())}

		want := make([][]float32, 4)
		for r := range want {
			want[r] = make([]float32, n)
			for j := range want[r] {
				want[r][j] = float32(math.FMA(float64(vs[r]), float64(b[j]), float64(d[r][j])))
			}
		}
		got := make([][]float32, 4)
		for r := range got {
			got[r] = append([]float32(nil), d[r]...)
		}
		axpyQuad(got[0], got[1], got[2], got[3], b, vs[0], vs[1], vs[2], vs[3])
		for r := range got {
			for j := range got[r] {
				if diff := ulpDiff(got[r][j], want[r][j]); diff > 2 {
					t.Fatalf("fma axpy n=%d row %d elem %d: %g (%#x) is %d ULPs from fused reference %g (%#x)",
						n, r, j, got[r][j], math.Float32bits(got[r][j]), diff,
						want[r][j], math.Float32bits(want[r][j]))
				}
			}
		}
	}
}

// The fma level must be unreachable without the explicit tolerance opt-in:
// hidden from Kernels(), rejected by SetKernel with a pointer at the
// opt-in, unlocked by SetTolerance > 0, and evicted (falling back to the
// bit-exact default) when the budget is withdrawn.
func TestToleranceGatesFMA(t *testing.T) {
	prevK := Kernel()
	prevTol := Tolerance()
	defer func() {
		SetTolerance(prevTol)
		if err := SetKernel(prevK); err != nil {
			t.Error(err)
		}
	}()

	SetTolerance(0)
	for _, name := range Kernels() {
		if name == "fma" {
			t.Fatal("Kernels() lists fma with no tolerance budget in effect")
		}
	}
	err := SetKernel("fma")
	if err == nil {
		t.Fatal("SetKernel(fma) succeeded without a tolerance opt-in")
	}
	if Kernel() == "fma" {
		t.Fatal("rejected SetKernel still activated fma")
	}
	if _, ok := archKernels()["fma"]; !ok {
		t.Skip("no fma kernel level on this CPU; gating of unavailable level verified")
	}
	if !strings.Contains(err.Error(), "SetTolerance") {
		t.Fatalf("gating error should point at the opt-in, got: %v", err)
	}

	if prev := SetTolerance(3); prev != 0 {
		t.Fatalf("SetTolerance returned stale previous budget %d", prev)
	}
	if Tolerance() != 3 {
		t.Fatalf("Tolerance() = %d after SetTolerance(3)", Tolerance())
	}
	found := false
	for _, name := range Kernels() {
		found = found || name == "fma"
	}
	if !found {
		t.Fatal("Kernels() does not list fma under a positive tolerance budget")
	}
	if err := SetKernel("fma"); err != nil {
		t.Fatal(err)
	}
	if Kernel() != "fma" {
		t.Fatalf("Kernel() = %q after SetKernel(fma)", Kernel())
	}

	SetTolerance(0)
	if Kernel() != defaultKernelName() {
		t.Fatalf("withdrawing the budget left kernel %q; want bit-exact default %q", Kernel(), defaultKernelName())
	}
}

// An unknown or unavailable VMQ_KERNEL value must fall back to the default
// level with a single warning line naming the available levels; valid
// values (including the fma opt-in) select silently.
func TestVMQKernelStartupSelection(t *testing.T) {
	prevK := Kernel()
	prevTol := Tolerance()
	defer func() {
		SetTolerance(prevTol)
		if err := SetKernel(prevK); err != nil {
			t.Error(err)
		}
	}()

	var buf strings.Builder
	initKernel("avx1024", &buf)
	if Kernel() != defaultKernelName() {
		t.Fatalf("unknown VMQ_KERNEL selected %q; want default %q", Kernel(), defaultKernelName())
	}
	warning := buf.String()
	if !strings.Contains(warning, `VMQ_KERNEL="avx1024"`) ||
		!strings.Contains(warning, "generic") ||
		!strings.Contains(warning, defaultKernelName()) {
		t.Fatalf("warning does not name the bad value, the fallback and the available levels: %q", warning)
	}
	if got := strings.Count(warning, "\n"); got != 1 {
		t.Fatalf("warning should be exactly one line, got %d: %q", got, warning)
	}

	buf.Reset()
	initKernel("", &buf)
	if buf.Len() != 0 || Kernel() != defaultKernelName() {
		t.Fatalf("empty VMQ_KERNEL: kernel %q, warning %q", Kernel(), buf.String())
	}

	buf.Reset()
	initKernel("generic", &buf)
	if buf.Len() != 0 || Kernel() != "generic" {
		t.Fatalf("VMQ_KERNEL=generic: kernel %q, warning %q", Kernel(), buf.String())
	}

	if _, ok := archKernels()["fma"]; ok {
		buf.Reset()
		SetTolerance(0)
		initKernel("fma", &buf)
		if buf.Len() != 0 {
			t.Fatalf("VMQ_KERNEL=fma warned despite being available: %q", buf.String())
		}
		if Kernel() != "fma" {
			t.Fatalf("VMQ_KERNEL=fma selected %q", Kernel())
		}
		if Tolerance() < 1 {
			t.Fatal("VMQ_KERNEL=fma did not establish a tolerance budget")
		}
	}
}

// SetKernel must reject unknown levels and report the active one.
func TestSetKernelValidation(t *testing.T) {
	prev := Kernel()
	defer SetKernel(prev)
	if err := SetKernel("avx1024"); err == nil {
		t.Fatal("SetKernel accepted an unknown kernel")
	}
	if Kernel() != prev {
		t.Fatalf("failed SetKernel changed the active kernel to %q", Kernel())
	}
	for _, name := range Kernels() {
		if err := SetKernel(name); err != nil {
			t.Fatalf("SetKernel(%q): %v", name, err)
		}
		if Kernel() != name {
			t.Fatalf("Kernel() = %q after SetKernel(%q)", Kernel(), name)
		}
	}
}
