// Package fft implements the one-dimensional fast Fourier transforms the
// Fourier polar filter is built on, plus real-signal helpers. Only the
// standard library is used.
//
// Every length n = 2ᵃ3ᵇ5ᶜ — powers of two included — runs on one
// mixed-radix Stockham autosort engine: radix-4, 2, 3 and 5 passes that
// ping-pong between the signal and a caller-provided buffer of n values,
// with each pass's twiddle factors precomputed in the Plan. Lengths with any
// other prime factor fall back to Bluestein's chirp-z algorithm, whose
// length-m convolution (m the smallest 5-smooth length ≥ 2n−1) runs on the
// same engine.
//
// A Plan is safe for concurrent use once constructed: all mutable state
// lives in caller-provided or per-call buffers.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Plan holds the precomputed tables for transforms of one length.
type Plan struct {
	n int

	// Stockham path (n 5-smooth): passes in execution order.
	stages []stage

	// Bluestein path (any other n)
	chirp []complex128 // w_k = exp(-iπk²/n)
	bconv []complex128 // transform of the chirp convolution kernel (length m)
	bplan *Plan        // Stockham plan of length m ≥ 2n−1
	m     int
}

// stage is one Stockham pass: it splits each length-l sub-transform (at
// stride s = n/l) into radix transforms of length l/radix.
type stage struct {
	radix int
	s     int          // stride between the elements of one sub-transform
	m     int          // l/radix
	tw    []complex128 // exp(−2πi·jq/l) at [q·(radix−1) + j−1], q < m, 1 ≤ j < radix
}

// NewPlan prepares a transform of length n ≥ 1.
func NewPlan(n int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	p := &Plan{n: n}
	if radices, ok := factor(n); ok {
		p.buildStockham(radices)
		return p
	}
	p.buildBluestein()
	return p
}

// Len returns the transform length.
func (p *Plan) Len() int { return p.n }

// factor splits n into Stockham radices (4s first, then 2, 3, 5) and
// reports whether n is 5-smooth.
func factor(n int) ([]int, bool) {
	var rs []int
	for n%4 == 0 {
		rs = append(rs, 4)
		n /= 4
	}
	for _, r := range []int{2, 3, 5} {
		for n%r == 0 {
			rs = append(rs, r)
			n /= r
		}
	}
	return rs, n == 1
}

func (p *Plan) buildStockham(radices []int) {
	l, s := p.n, 1
	for _, r := range radices {
		m := l / r
		tw := make([]complex128, m*(r-1))
		for q := 0; q < m; q++ {
			for j := 1; j < r; j++ {
				// jq < l, so the angle needs no range reduction.
				ang := -2 * math.Pi * float64(j*q) / float64(l)
				tw[q*(r-1)+j-1] = cmplx.Exp(complex(0, ang))
			}
		}
		p.stages = append(p.stages, stage{radix: r, s: s, m: m, tw: tw})
		l, s = m, s*r
	}
}

// smooth5 returns the smallest 5-smooth integer ≥ n.
func smooth5(n int) int {
	for m := n; ; m++ {
		if _, ok := factor(m); ok {
			return m
		}
	}
}

func (p *Plan) buildBluestein() {
	n := p.n
	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k² mod 2n avoids precision loss for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := -math.Pi * float64(kk) / float64(n)
		p.chirp[k] = cmplx.Exp(complex(0, ang))
	}
	m := smooth5(2*n - 1)
	p.m = m
	p.bplan = NewPlan(m)
	// Convolution kernel b_k = conj(chirp)_|k| wrapped.
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		c := cmplx.Conj(p.chirp[k])
		b[k] = c
		if k > 0 {
			b[m-k] = c
		}
	}
	p.bplan.stockham(b, make([]complex128, m))
	p.bconv = b
}

// Forward computes the in-place forward DFT
// X_k = Σ_j x_j · exp(−2πi·jk/n). It allocates its work space; hot paths
// should use ForwardScratch.
func (p *Plan) Forward(x []complex128) {
	p.ForwardScratch(x, nil)
}

// ScratchLen returns the length of the complex work buffer ForwardScratch
// and InverseScratch need: n for the Stockham ping-pong, or the Bluestein
// convolution buffer plus its inner ping-pong.
func (p *Plan) ScratchLen() int {
	if p.bplan != nil {
		return 2 * p.m
	}
	return p.n
}

// ForwardScratch is Forward with caller-provided work space of at least
// ScratchLen() values (nil allocates). With caller scratch the transform
// performs no heap allocation, and one Plan can serve many goroutines as
// long as each brings its own scratch.
//
//cadyvet:allocfree
func (p *Plan) ForwardScratch(x, scratch []complex128) {
	p.checkLen(x)
	need := p.ScratchLen()
	if scratch == nil {
		//cadyvet:allow nil-scratch convenience path for tests and one-off calls; hot callers pass ScratchLen scratch
		scratch = make([]complex128, need)
	} else if len(scratch) < need {
		panic(fmt.Sprintf("fft: scratch length %d < required %d", len(scratch), need))
	}
	if p.bplan != nil {
		p.bluestein(x, scratch[:p.m], scratch[p.m:need])
		return
	}
	p.stockham(x, scratch[:p.n])
}

// Inverse computes the in-place inverse DFT (with the 1/n normalization),
// so Inverse(Forward(x)) == x.
func (p *Plan) Inverse(x []complex128) {
	p.InverseScratch(x, nil)
}

// InverseScratch is Inverse with caller-provided work space (see
// ForwardScratch).
//
//cadyvet:allocfree
func (p *Plan) InverseScratch(x, scratch []complex128) {
	p.checkLen(x)
	n := p.n
	// inverse via conjugation: IDFT(x) = conj(DFT(conj(x)))/n
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	p.ForwardScratch(x, scratch)
	inv := 1 / float64(n)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) * complex(inv, 0)
	}
}

func (p *Plan) checkLen(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: input length %d != plan length %d", len(x), p.n))
	}
}

// stockham runs the passes, alternating between x and y (both length n),
// and leaves the transform in x.
//
//cadyvet:allocfree
func (p *Plan) stockham(x, y []complex128) {
	src, dst := x, y
	for i := range p.stages {
		st := &p.stages[i]
		switch st.radix {
		case 4:
			pass4(src, dst, st)
		case 2:
			pass2(src, dst, st)
		case 3:
			pass3(src, dst, st)
		default:
			pass5(src, dst, st)
		}
		src, dst = dst, src
	}
	if len(p.stages)%2 == 1 {
		copy(x, src)
	}
}

// mulNegI returns −i·z.
func mulNegI(z complex128) complex128 { return complex(imag(z), -real(z)) }

// scale returns c·z for real c.
func scale(c float64, z complex128) complex128 { return complex(c*real(z), c*imag(z)) }

// The passes share one indexing scheme: with s the stride and m = l/radix,
// input element k·m + q of every sub-transform (offset t < s) is read from
// x[s·(q + k·m) + t], and output j of butterfly q, times the twiddle
// exp(−2πi·jq/l), is written to y[s·(radix·q + j) + t].

func pass2(x, y []complex128, st *stage) {
	s, m := st.s, st.m
	if s == 1 {
		for q := 0; q < m; q++ {
			b0, b1 := bfly2(x[q], x[q+m])
			yq := y[2*q:][:2]
			yq[0], yq[1] = b0, b1*st.tw[q]
		}
		return
	}
	for q := 0; q < m; q++ {
		x0, x1 := x[s*q:][:s], x[s*(q+m):][:s]
		y0, y1 := y[s*2*q:][:s], y[s*(2*q+1):][:s]
		w1 := st.tw[q]
		for t := range x0 {
			b0, b1 := bfly2(x0[t], x1[t])
			y0[t], y1[t] = b0, b1*w1
		}
	}
}

func pass3(x, y []complex128, st *stage) {
	s, m := st.s, st.m
	if s == 1 {
		for q := 0; q < m; q++ {
			w := st.tw[2*q:][:2]
			b0, b1, b2 := bfly3(x[q], x[q+m], x[q+2*m])
			yq := y[3*q:][:3]
			yq[0], yq[1], yq[2] = b0, b1*w[0], b2*w[1]
		}
		return
	}
	for q := 0; q < m; q++ {
		x0, x1, x2 := x[s*q:][:s], x[s*(q+m):][:s], x[s*(q+2*m):][:s]
		y0, y1, y2 := y[s*3*q:][:s], y[s*(3*q+1):][:s], y[s*(3*q+2):][:s]
		w1, w2 := st.tw[2*q], st.tw[2*q+1]
		for t := range x0 {
			b0, b1, b2 := bfly3(x0[t], x1[t], x2[t])
			y0[t], y1[t], y2[t] = b0, b1*w1, b2*w2
		}
	}
}

func pass4(x, y []complex128, st *stage) {
	s, m := st.s, st.m
	if s == 1 {
		for q := 0; q < m; q++ {
			w := st.tw[3*q:][:3]
			b0, b1, b2, b3 := bfly4(x[q], x[q+m], x[q+2*m], x[q+3*m])
			yq := y[4*q:][:4]
			yq[0], yq[1], yq[2], yq[3] = b0, b1*w[0], b2*w[1], b3*w[2]
		}
		return
	}
	for q := 0; q < m; q++ {
		x0, x1, x2, x3 := x[s*q:][:s], x[s*(q+m):][:s], x[s*(q+2*m):][:s], x[s*(q+3*m):][:s]
		y0, y1, y2, y3 := y[s*4*q:][:s], y[s*(4*q+1):][:s], y[s*(4*q+2):][:s], y[s*(4*q+3):][:s]
		w1, w2, w3 := st.tw[3*q], st.tw[3*q+1], st.tw[3*q+2]
		for t := range x0 {
			b0, b1, b2, b3 := bfly4(x0[t], x1[t], x2[t], x3[t])
			y0[t], y1[t], y2[t], y3[t] = b0, b1*w1, b2*w2, b3*w3
		}
	}
}

func pass5(x, y []complex128, st *stage) {
	s, m := st.s, st.m
	if s == 1 {
		for q := 0; q < m; q++ {
			w := st.tw[4*q:][:4]
			b0, b1, b2, b3, b4 := bfly5(x[q], x[q+m], x[q+2*m], x[q+3*m], x[q+4*m])
			yq := y[5*q:][:5]
			yq[0], yq[1], yq[2], yq[3], yq[4] = b0, b1*w[0], b2*w[1], b3*w[2], b4*w[3]
		}
		return
	}
	for q := 0; q < m; q++ {
		x0, x1, x2 := x[s*q:][:s], x[s*(q+m):][:s], x[s*(q+2*m):][:s]
		x3, x4 := x[s*(q+3*m):][:s], x[s*(q+4*m):][:s]
		y0, y1, y2 := y[s*5*q:][:s], y[s*(5*q+1):][:s], y[s*(5*q+2):][:s]
		y3, y4 := y[s*(5*q+3):][:s], y[s*(5*q+4):][:s]
		w := st.tw[4*q:][:4]
		for t := range x0 {
			b0, b1, b2, b3, b4 := bfly5(x0[t], x1[t], x2[t], x3[t], x4[t])
			y0[t], y1[t], y2[t], y3[t], y4[t] = b0, b1*w[0], b2*w[1], b3*w[2], b4*w[3]
		}
	}
}

// bfly2 … bfly5 are the length-r DFTs the passes are built from.

func bfly2(a0, a1 complex128) (b0, b1 complex128) {
	return a0 + a1, a0 - a1
}

func bfly3(a0, a1, a2 complex128) (b0, b1, b2 complex128) {
	const sin3 = 0.86602540378443864676 // sin(2π/3)
	t1 := a1 + a2
	t2 := a0 - scale(0.5, t1)
	t3 := mulNegI(scale(sin3, a1-a2))
	return a0 + t1, t2 + t3, t2 - t3
}

func bfly4(a0, a1, a2, a3 complex128) (b0, b1, b2, b3 complex128) {
	t0, t1 := a0+a2, a0-a2
	t2, t3 := a1+a3, mulNegI(a1-a3)
	return t0 + t2, t1 + t3, t0 - t2, t1 - t3
}

func bfly5(a0, a1, a2, a3, a4 complex128) (b0, b1, b2, b3, b4 complex128) {
	const (
		c1 = 0.30901699437494742410  // cos(2π/5)
		c2 = -0.80901699437494742410 // cos(4π/5)
		s1 = 0.95105651629515357212  // sin(2π/5)
		s2 = 0.58778525229247312917  // sin(4π/5)
	)
	t1, t2 := a1+a4, a2+a3
	t3, t4 := a1-a4, a2-a3
	r1 := a0 + scale(c1, t1) + scale(c2, t2)
	r2 := a0 + scale(c2, t1) + scale(c1, t2)
	i1 := mulNegI(scale(s1, t3) + scale(s2, t4))
	i2 := mulNegI(scale(s2, t3) - scale(s1, t4))
	return a0 + t1 + t2, r1 + i1, r2 + i2, r2 - i2, r1 - i1
}

// bluestein evaluates the DFT of arbitrary length as a length-m circular
// convolution in a, using b (length m) as the inner transforms' ping-pong.
func (p *Plan) bluestein(x, a, b []complex128) {
	n, m := p.n, p.m
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.chirp[k]
	}
	for k := n; k < m; k++ {
		a[k] = 0
	}
	p.bplan.stockham(a, b)
	for k := 0; k < m; k++ {
		a[k] *= p.bconv[k]
	}
	// inverse length-m transform of a
	for i := range a {
		a[i] = cmplx.Conj(a[i])
	}
	p.bplan.stockham(a, b)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = p.chirp[k] * cmplx.Conj(a[k]) * scale
	}
}

// ForwardReal transforms a real signal into its n complex coefficients
// (dst may be nil; the coefficient slice is returned).
func (p *Plan) ForwardReal(src []float64, dst []complex128) []complex128 {
	if len(src) != p.n {
		panic(fmt.Sprintf("fft: input length %d != plan length %d", len(src), p.n))
	}
	if dst == nil {
		dst = make([]complex128, p.n)
	}
	for i, v := range src {
		dst[i] = complex(v, 0)
	}
	p.Forward(dst)
	return dst
}

// InverseToReal inverts coefficients into dst, discarding the (numerically
// tiny, for conjugate-symmetric spectra) imaginary parts.
func (p *Plan) InverseToReal(coef []complex128, dst []float64) {
	if len(coef) != p.n || len(dst) != p.n {
		panic("fft: length mismatch in InverseToReal")
	}
	tmp := make([]complex128, p.n)
	copy(tmp, coef)
	p.Inverse(tmp)
	for i := range dst {
		dst[i] = real(tmp[i])
	}
}

// NaiveDFT computes the forward DFT directly in O(n²); it exists as the
// reference for tests. The exponent jk is reduced mod n in integers, so the
// reference stays accurate at large n.
func NaiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j*k%n) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}
