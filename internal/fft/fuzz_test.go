package fft

import (
	"math"
	"math/cmplx"
	"testing"
)

// xorshift returns a deterministic pseudo-random stream in [−100, 100]
// seeded by seed, so fuzz inputs span large and small magnitudes.
func xorshift(seed int64) func() float64 {
	s := uint64(seed)*2685821657736338717 + 1
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(int64(s)) / float64(math.MaxInt64) * 100
	}
}

// fuzzLen maps a fuzzed uint16 onto 1…1024 so that the seeds 1…1024 are
// the lengths they name (0 wraps to 1024).
func fuzzLen(nRaw uint16) int { return int(nRaw-1)%1024 + 1 }

// FuzzPlanMatchesNaive pins the complex transform itself, not only its
// round trip (which any invertible transform satisfies): Plan.Forward must
// match NaiveDFT to 1e-12·n·max|x| for every n in 1…1024. The corpus seeds
// the degenerate lengths, single radix-2/3/5 passes, the filter's meshes
// (48, 96, 720), power-of-two lengths, and Bluestein lengths — a prime (97)
// and 98 = 2·7², whose inner convolution is 5-smooth but not a power of two.
func FuzzPlanMatchesNaive(f *testing.F) {
	for i, n := range []uint16{1, 2, 3, 5, 48, 96, 97, 98, 720, 1024} {
		f.Add(n, int64(i+1))
	}
	f.Fuzz(func(t *testing.T, nRaw uint16, seed int64) {
		n := fuzzLen(nRaw)
		next := xorshift(seed)
		x := make([]complex128, n)
		scale := 0.0
		for i := range x {
			x[i] = complex(next(), next())
			scale = math.Max(scale, cmplx.Abs(x[i]))
		}
		want := NaiveDFT(x)
		p := NewPlan(n)
		got := append([]complex128(nil), x...)
		p.ForwardScratch(got, make([]complex128, p.ScratchLen()))
		tol := 1e-12 * float64(n) * scale
		for k := range got {
			if d := cmplx.Abs(got[k] - want[k]); d > tol {
				t.Fatalf("n=%d k=%d: Forward %v vs naive %v (diff %g > %g)", n, k, got[k], want[k], d, tol)
			}
		}
	})
}

// FuzzRealPlanRoundTrip fuzzes the half-spectrum real transform over random
// lengths and data: Inverse∘Forward must reproduce the signal to ≤1e-12
// (scaled by n and the signal magnitude). The corpus seeds the audited edge
// cases — n = 1 (the degenerate full-complex plan), n = 2 (the smallest
// even split, whose half plan has length 1), odd lengths (the full-complex
// fallback) and even non-powers-of-two — so the audit stays pinned.
func FuzzRealPlanRoundTrip(f *testing.F) {
	f.Add(uint16(1), int64(1))
	f.Add(uint16(2), int64(2))
	f.Add(uint16(3), int64(3))
	f.Add(uint16(5), int64(4))
	f.Add(uint16(6), int64(5))
	f.Add(uint16(15), int64(6))
	f.Add(uint16(96), int64(7))
	f.Add(uint16(97), int64(8))
	f.Add(uint16(720), int64(9))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed int64) {
		n := fuzzLen(nRaw)
		p := NewRealPlan(n)
		if got := p.SpecLen(); got != n/2+1 {
			t.Fatalf("n=%d: SpecLen = %d, want %d", n, got, n/2+1)
		}
		next := xorshift(seed)
		src := make([]float64, n)
		for i := range src {
			src[i] = next()
		}
		spec := make([]complex128, p.SpecLen())
		scratch := make([]complex128, p.ScratchLen())
		dst := make([]float64, n)
		p.Forward(src, spec, scratch)
		p.Inverse(spec, dst, scratch)
		scale := 0.0
		for _, v := range src {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		tol := 1e-12 * float64(n) * (1 + scale)
		for i := range src {
			if d := math.Abs(dst[i] - src[i]); d > tol {
				t.Fatalf("n=%d i=%d: round trip error %g > %g (src %g, dst %g)",
					n, i, d, tol, src[i], dst[i])
			}
		}
		// The imaginary parts of the DC and (even n) Nyquist bins must
		// vanish for real input — the invariant the polar filter relies on
		// when it scales bins by real factors.
		if im := imag(spec[0]); im != 0 {
			t.Fatalf("n=%d: DC bin has imaginary part %g", n, im)
		}
		if n%2 == 0 {
			if im := imag(spec[n/2]); im != 0 {
				t.Fatalf("n=%d: Nyquist bin has imaginary part %g", n, im)
			}
		}
	})
}
