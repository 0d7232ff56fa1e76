package filter

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"cadycore/internal/fft"

	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/topo"
)

func testGrid() *grid.Grid { return grid.New(32, 16, 4) }

func fullBlock(g *grid.Grid) field.Block {
	return field.Block{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		I0: 0, I1: g.Nx, J0: 0, J1: g.Ny, K0: 0, K1: g.Nz,
	}
}

func TestCutoffProfile(t *testing.T) {
	g := testGrid()
	f := New(g, 60)
	half := g.Nx / 2
	for j := 0; j < g.Ny; j++ {
		m := f.MMax(j)
		if m < 1 || m > half {
			t.Errorf("row %d: m_max = %d outside [1, %d]", j, m, half)
		}
		lat := math.Abs(g.LatitudeDeg(j))
		if lat < 60 && m != half {
			t.Errorf("row %d (lat %.1f) should be unfiltered, m_max = %d", j, lat, m)
		}
		if lat > 60 && m >= half {
			t.Errorf("row %d (lat %.1f) should be filtered", j, lat)
		}
	}
	// Monotone: rows closer to a pole keep fewer waves.
	for j := 1; j < g.Ny/2; j++ {
		if f.MMax(j-1) > f.MMax(j) {
			t.Errorf("m_max not monotone toward the north pole at %d", j)
		}
	}
}

func TestGhostRowCutoffMirrors(t *testing.T) {
	g := testGrid()
	f := New(g, 60)
	if f.MMax(-1) != f.MMax(0) || f.MMax(-2) != f.MMax(1) {
		t.Error("north ghost cutoffs must mirror")
	}
	if f.MMax(g.Ny) != f.MMax(g.Ny-1) || f.MMax(g.Ny+1) != f.MMax(g.Ny-2) {
		t.Error("south ghost cutoffs must mirror")
	}
}

func TestLowWavesPassExactly(t *testing.T) {
	g := testGrid()
	f := New(g, 60)
	j := 0 // most filtered row
	mKeep := f.MMax(j)
	row := make([]float64, g.Nx)
	for i := range row {
		row[i] = math.Cos(2 * math.Pi * float64(i) / float64(g.Nx) * float64(mKeep))
	}
	want := append([]float64(nil), row...)
	f.FilterRow(row, j)
	for i := range row {
		if math.Abs(row[i]-want[i]) > 1e-10 {
			t.Fatalf("retained wave distorted at %d: %v vs %v", i, row[i], want[i])
		}
	}
}

func TestHighWavesRemoved(t *testing.T) {
	g := testGrid()
	f := New(g, 60)
	j := 0
	m := f.MMax(j) + 1
	row := make([]float64, g.Nx)
	for i := range row {
		row[i] = math.Sin(2 * math.Pi * float64(i) / float64(g.Nx) * float64(m))
	}
	f.FilterRow(row, j)
	for i := range row {
		if math.Abs(row[i]) > 1e-10 {
			t.Fatalf("wave m=%d not removed: row[%d]=%v", m, i, row[i])
		}
	}
}

func TestIdempotent(t *testing.T) {
	g := testGrid()
	f := New(g, 60)
	rng := rand.New(rand.NewSource(3))
	for _, j := range []int{0, 1, g.Ny - 1} {
		row := make([]float64, g.Nx)
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		f.FilterRow(row, j)
		once := append([]float64(nil), row...)
		f.FilterRow(row, j)
		for i := range row {
			if math.Abs(row[i]-once[i]) > 1e-12 {
				t.Fatalf("row %d: filter not idempotent at %d", j, i)
			}
		}
	}
}

func TestUnfilteredRowsCostNothing(t *testing.T) {
	g := testGrid()
	f := New(g, 60)
	fld := field.NewF3(fullBlock(g))
	// Rect covering only equatorial rows.
	r := field.Rect{I0: 0, I1: g.Nx, J0: g.Ny/2 - 1, J1: g.Ny/2 + 1, K0: 0, K1: 1}
	if rows := f.Apply(fld, r); rows != 0 {
		t.Errorf("equatorial rows transformed: %d", rows)
	}
}

func TestApplyMatchesRowFilter(t *testing.T) {
	g := testGrid()
	f := New(g, 60)
	rng := rand.New(rand.NewSource(4))
	fld := field.NewF3(fullBlock(g))
	for i := range fld.Data {
		fld.Data[i] = rng.NormFloat64()
	}
	ref := fld.Clone()
	f.Apply(fld, fullBlock(g).Owned())
	row := make([]float64, g.Nx)
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			base := ref.Index(0, j, k)
			copy(row, ref.Data[base:base+g.Nx])
			f.FilterRow(row, j)
			for i := 0; i < g.Nx; i++ {
				if fld.At(i, j, k) != row[i] {
					t.Fatalf("Apply differs from FilterRow at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestDistributedMatchesSerial(t *testing.T) {
	g := testGrid()
	rng := rand.New(rand.NewSource(5))
	global := make([]float64, g.Nx*g.Ny*g.Nz)
	for i := range global {
		global[i] = rng.NormFloat64()
	}
	at := func(i, j, k int) float64 { return global[(k*g.Ny+j)*g.Nx+i] }

	// Serial reference.
	ser := field.NewF3(fullBlock(g))
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				ser.Set(i, j, k, at(i, j, k))
			}
		}
	}
	fser := New(g, 60)
	fser.Apply(ser, fullBlock(g).Owned())

	for _, pg := range [][2]int{{2, 1}, {4, 2}, {2, 4}} {
		px, py := pg[0], pg[1]
		w := comm.NewWorld(px*py, comm.Zero())
		w.Run(func(c *comm.Comm) {
			tp := topo.New(c, g, px, py, 1, 3, 1, 1)
			fld := field.NewF3(tp.Block)
			b := tp.Block
			for k := b.K0; k < b.K1; k++ {
				for j := b.J0; j < b.J1; j++ {
					for i := b.I0; i < b.I1; i++ {
						fld.Set(i, j, k, at(i, j, k))
					}
				}
			}
			f := New(g, 60)
			f.ApplyDist(tp, fld)
			for k := b.K0; k < b.K1; k++ {
				for j := b.J0; j < b.J1; j++ {
					for i := b.I0; i < b.I1; i++ {
						if got, want := fld.At(i, j, k), ser.At(i, j, k); got != want {
							t.Fatalf("px=%d py=%d: (%d,%d,%d) got %v want %v", px, py, i, j, k, got, want)
						}
					}
				}
			}
		})
		// The distributed filter must actually communicate (px > 1).
		if w.Stats().MsgsByCat[comm.CatCollectiveX] == 0 {
			t.Errorf("px=%d: distributed filter sent no x-collective messages", px)
		}
	}
}

func TestDistributed2DMatchesSerial(t *testing.T) {
	g := testGrid()
	rng := rand.New(rand.NewSource(6))
	global := make([]float64, g.Nx*g.Ny)
	for i := range global {
		global[i] = rng.NormFloat64()
	}
	at := func(i, j int) float64 { return global[j*g.Nx+i] }

	ser := field.NewF2(fullBlock(g))
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			ser.Set(i, j, at(i, j))
		}
	}
	fser := New(g, 60)
	fser.Apply2(ser, fullBlock(g).Owned())

	const px, py = 4, 2
	w := comm.NewWorld(px*py, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := topo.New(c, g, px, py, 1, 3, 1, 1)
		fld := field.NewF2(tp.Block)
		b := tp.Block
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				fld.Set(i, j, at(i, j))
			}
		}
		f := New(g, 60)
		f.ApplyDist2(tp, fld)
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				if got, want := fld.At(i, j), ser.At(i, j); got != want {
					t.Fatalf("(%d,%d) got %v want %v", i, j, got, want)
				}
			}
		}
	})
}

func TestSerialFilterNoComm(t *testing.T) {
	// The Y-Z configuration's filter must move zero bytes (Theorem 4.1 with
	// η_x = 0: the whole point of choosing p_x = 1).
	g := testGrid()
	w := comm.NewWorld(2, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := topo.New(c, g, 1, 2, 1, 3, 1, 1)
		fld := field.NewF3(tp.Block)
		f := New(g, 60)
		f.ApplyDist(tp, fld) // falls back to the serial path when RowX is trivial
	})
	if got := w.Stats().MsgsByCat[comm.CatCollectiveX]; got != 0 {
		t.Errorf("p_x = 1 filter sent %d messages, want 0", got)
	}
}

func TestFilterTruncatesSpectrum(t *testing.T) {
	// Structural link between the filter and the spectral diagnostic: after
	// filtering, a polar row has no energy above its cutoff.
	g := testGrid()
	f := New(g, 60)
	rng := rand.New(rand.NewSource(9))
	fld := field.NewF3(fullBlock(g))
	for i := range fld.Data {
		fld.Data[i] = rng.NormFloat64()
	}
	f.Apply(fld, fullBlock(g).Owned())
	j := 0 // strongly filtered row
	row := make([]float64, g.Nx)
	base := fld.Index(0, j, 0)
	copy(row, fld.Data[base:base+g.Nx])
	coef := fft.NewPlan(g.Nx).ForwardReal(row, nil)
	for m := f.MMax(j) + 1; m <= g.Nx/2; m++ {
		if a := cmplx.Abs(coef[m]); a > 1e-10 {
			t.Errorf("energy above cutoff at m=%d: %v", m, a)
		}
	}
}

func TestBatchedMatchesPerField(t *testing.T) {
	// One transpose round-trip for all fields must equal per-field
	// filtering bitwise, while entering fewer collectives.
	g := testGrid()
	rng := rand.New(rand.NewSource(10))
	global := make([]float64, 4*g.Nx*g.Ny*g.Nz)
	for i := range global {
		global[i] = rng.NormFloat64()
	}
	at := func(f, i, j, k int) float64 { return global[((f*g.Nz+k)*g.Ny+j)*g.Nx+i] }

	const px, py = 4, 2
	type result struct {
		data  [][]float64
		colls int64
	}
	runMode := func(batched bool) result {
		w := comm.NewWorld(px*py, comm.Zero())
		out := make([][]float64, px*py)
		w.Run(func(c *comm.Comm) {
			tp := topo.New(c, g, px, py, 1, 3, 1, 1)
			b := tp.Block
			mk := func(fi int) *field.F3 {
				fld := field.NewF3(b)
				for k := b.K0; k < b.K1; k++ {
					for j := b.J0; j < b.J1; j++ {
						for i := b.I0; i < b.I1; i++ {
							fld.Set(i, j, k, at(fi, i, j, k))
						}
					}
				}
				return fld
			}
			a, bb, cc := mk(0), mk(1), mk(2)
			f2 := field.NewF2(b)
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					f2.Set(i, j, at(3, i, j, 0))
				}
			}
			f := New(g, 60)
			if batched {
				f.ApplyDistBatch(tp, []*field.F3{a, bb, cc}, []*field.F2{f2})
			} else {
				f.ApplyDist(tp, a)
				f.ApplyDist(tp, bb)
				f.ApplyDist(tp, cc)
				f.ApplyDist2(tp, f2)
			}
			var flat []float64
			for _, fld := range []*field.F3{a, bb, cc} {
				for k := b.K0; k < b.K1; k++ {
					for j := b.J0; j < b.J1; j++ {
						for i := b.I0; i < b.I1; i++ {
							flat = append(flat, fld.At(i, j, k))
						}
					}
				}
			}
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					flat = append(flat, f2.At(i, j))
				}
			}
			out[c.Rank()] = flat
		})
		return result{out, w.Stats().Collectives}
	}
	perField := runMode(false)
	batched := runMode(true)
	for r := range perField.data {
		for i := range perField.data[r] {
			if perField.data[r][i] != batched.data[r][i] {
				t.Fatalf("rank %d elem %d: batched %v != per-field %v",
					r, i, batched.data[r][i], perField.data[r][i])
			}
		}
	}
	if batched.colls*2 > perField.colls {
		t.Errorf("batched entered %d collectives, per-field %d — batching should cut them ~4x",
			batched.colls, perField.colls)
	}
}

func TestStableDtFilterRelaxesCFL(t *testing.T) {
	g := grid.New(128, 64, 4) // fine mesh: strong polar clustering
	f := New(g, 60)
	unf, fil := f.StableDt(100)
	if unf <= 0 || fil <= 0 {
		t.Fatalf("degenerate CFL: %v %v", unf, fil)
	}
	// Filtering must relax the limit substantially: the polar row keeps
	// only ~sinθ/sinθc of the wavenumbers.
	if fil < 3*unf {
		t.Errorf("filter relaxed CFL only %vx (unfiltered %v s, filtered %v s)", fil/unf, unf, fil)
	}
	// The filtered limit is set near the cutoff latitude: effective spacing
	// ≈ a·sin(30° colat)·Δλ.
	approx := 6.371e6 * math.Sin(30*math.Pi/180) * g.DLambda / 100
	if fil < 0.5*approx || fil > 2*approx {
		t.Errorf("filtered CFL %v s far from the cutoff-latitude estimate %v s", fil, approx)
	}
}

func TestFilterRowMatchesComplexReference(t *testing.T) {
	// The rfft fast path must reproduce the original full-complex filter
	// (forward, zero m ∈ [mmax+1, Nx−mmax−1], inverse) to 1e-12.
	g := testGrid()
	f := New(g, 60)
	rng := rand.New(rand.NewSource(21))
	plan := fft.NewPlan(g.Nx)
	for _, j := range []int{0, 1, 2, g.Ny - 1} {
		row := make([]float64, g.Nx)
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		ref := append([]float64(nil), row...)
		coef := plan.ForwardReal(ref, nil)
		for m := f.MMax(j) + 1; m <= g.Nx-f.MMax(j)-1; m++ {
			coef[m] = 0
		}
		plan.InverseToReal(coef, ref)

		f.FilterRow(row, j)
		for i := range row {
			if math.Abs(row[i]-ref[i]) > 1e-12 {
				t.Fatalf("row %d: rfft path differs from complex reference at %d: %v vs %v",
					j, i, row[i], ref[i])
			}
		}
	}
}

// TestFilterRowMatchesNaiveLowPass pins F̃ on every FFT path it can take —
// radix-4/2 only (64), 5-smooth mixed radix (40, 48, 96, 720) and the
// Bluestein fallback (98, whose half length is 7²) — against a low-pass
// built on the O(n²) NaiveDFT, to 1e-12.
func TestFilterRowMatchesNaiveLowPass(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, nx := range []int{40, 48, 64, 96, 720, 98} {
		g := grid.New(nx, 16, 2)
		f := New(g, 60)
		for _, j := range []int{0, 1, g.Ny - 2, g.Ny - 1} {
			if !f.Active(j) {
				t.Fatalf("nx=%d: row %d unexpectedly unfiltered", nx, j)
			}
			row := make([]float64, nx)
			x := make([]complex128, nx)
			for i := range row {
				row[i] = rng.NormFloat64()
				x[i] = complex(row[i], 0)
			}
			coef := fft.NaiveDFT(x)
			for m := f.MMax(j) + 1; m <= nx-f.MMax(j)-1; m++ {
				coef[m] = 0
			}
			// Inverse DFT via conjugation: x = conj(DFT(conj(X)))/n.
			for k := range coef {
				coef[k] = cmplx.Conj(coef[k])
			}
			ref := fft.NaiveDFT(coef)

			f.FilterRow(row, j)
			for i := range row {
				want := real(ref[i]) / float64(nx)
				if d := math.Abs(row[i] - want); d > 1e-12 {
					t.Fatalf("nx=%d row %d: FilterRow differs from naive low-pass at %d: %v vs %v (diff %g)",
						nx, j, i, row[i], want, d)
				}
			}
		}
	}
}

func TestFilterRowZeroAlloc(t *testing.T) {
	// The steady-state step depends on row filtering being allocation-free.
	g := testGrid()
	f := New(g, 60)
	row := make([]float64, g.Nx)
	for i := range row {
		row[i] = math.Sin(float64(i))
	}
	allocs := testing.AllocsPerRun(200, func() {
		f.FilterRow(row, 0)
	})
	if allocs != 0 {
		t.Errorf("FilterRow allocated %v per op, want 0", allocs)
	}
}

func TestApplyZeroAlloc(t *testing.T) {
	g := testGrid()
	f := New(g, 60)
	fld := field.NewF3(fullBlock(g))
	for i := range fld.Data {
		fld.Data[i] = math.Cos(float64(i))
	}
	rect := fullBlock(g).Owned()
	allocs := testing.AllocsPerRun(20, func() {
		f.Apply(fld, rect)
	})
	if allocs != 0 {
		t.Errorf("Apply allocated %v per op, want 0", allocs)
	}
}
