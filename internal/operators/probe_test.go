package operators

import (
	"math"
	"testing"

	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/state"
	"cadycore/internal/stencil"
)

// The probe tests verify the central safety property of the deep-halo
// scheme: every implemented kernel's true dependency footprint lies inside
// the bounding box of the paper's declared stencil tables (Tables 1–3). A
// kernel reading outside its declared box would make the halo arithmetic of
// Section 4.3.1 unsound; the probes perturb single input points and check
// where outputs change.

func probeGrid() *grid.Grid { return grid.New(16, 10, 6) }

func serialBlock(g *grid.Grid) field.Block {
	return field.Block{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		I0: 0, I1: g.Nx, J0: 0, J1: g.Ny, K0: 0, K1: g.Nz,
		Hx: 4, Hy: 3, Hz: 2,
	}
}

// smoothState builds a gentle, fully asymmetric state.
func smoothState(g *grid.Grid, b field.Block) *state.State {
	st := state.New(b)
	st.InitFromPhysical(g,
		func(lam, th, sig float64) float64 { return 12*math.Sin(th)*math.Sin(th) + math.Sin(2*lam) },
		func(lam, th, sig float64) float64 { return 1.2 * math.Sin(lam) * math.Sin(th) * math.Sin(th) },
		func(lam, th, sig float64) float64 { return 270 - 30*(1-sig) + 3*math.Cos(th) + math.Cos(lam) },
		func(lam, th float64) float64 { return 100000 + 200*math.Sin(lam)*math.Sin(th) },
	)
	st.FillLocalBounds()
	return st
}

// prepare computes surface diagnostics and a Ĉ result for st.
func prepare(g *grid.Grid, st *state.State) (*Surface, *CRes, *field.F3) {
	b := st.B
	sur := NewSurface(b)
	sur.Update(st.Psa)
	divp := field.NewF3(b)
	owned := b.Owned()
	DivP(g, st.U, st.V, sur, divp, owned)
	field.FillVerticalZ(divp, b.Hz)
	cres := NewCRes(b)
	CSum(g, nil, nil, divp, cres, owned, 0, g.Nz)
	cres.PWI.FillXPeriodic()
	cres.DBar.FillXPeriodic()
	field.FillPolesY(cres.PWI, field.Even, field.CenterY, b.Hy)
	field.FillPolesY2(cres.DBar, field.Even, b.Hy)
	return sur, cres, divp
}

// xDist is the periodic distance i→i0 in the shorter direction.
func xDist(g *grid.Grid, i, i0 int) int {
	d := i - i0
	if d > g.Nx/2 {
		d -= g.Nx
	}
	if d < -g.Nx/2 {
		d += g.Nx
	}
	return d
}

// probeOp perturbs component comp of the state at (i0,j0,k0) and returns
// the offsets (relative to the perturbation) of all owned output points
// that changed under apply.
func probeOp(t *testing.T, comp string, i0, j0, k0 int,
	apply func(st *state.State, out *Tendency)) [][3]int {
	t.Helper()
	g := probeGrid()
	b := serialBlock(g)

	run := func(pert bool) *Tendency {
		st := smoothState(g, b)
		if pert {
			switch comp {
			case "U":
				st.U.Add(i0, j0, k0, 1e-3)
			case "V":
				st.V.Add(i0, j0, k0, 1e-3)
			case "Phi":
				st.Phi.Add(i0, j0, k0, 1e-3)
			case "Psa":
				st.Psa.Add(i0, j0, 5.0)
			}
			st.FillLocalBounds()
		}
		out := NewTendency(b)
		apply(st, out)
		return out
	}
	base := run(false)
	pert := run(true)

	var offsets [][3]int
	owned := b.Owned()
	check := func(name string, a, o *field.F3) {
		for k := owned.K0; k < owned.K1; k++ {
			for j := owned.J0; j < owned.J1; j++ {
				for i := owned.I0; i < owned.I1; i++ {
					if a.At(i, j, k) != o.At(i, j, k) {
						offsets = append(offsets, [3]int{xDist(g, i, i0), j - j0, k - k0})
					}
				}
			}
		}
	}
	check("DU", base.DU, pert.DU)
	check("DV", base.DV, pert.DV)
	check("DPhi", base.DPhi, pert.DPhi)
	for j := owned.J0; j < owned.J1; j++ {
		for i := owned.I0; i < owned.I1; i++ {
			if base.DPsa.At(i, j) != pert.DPsa.At(i, j) {
				offsets = append(offsets, [3]int{xDist(g, i, i0), j - j0, 0})
			}
		}
	}
	if len(offsets) == 0 {
		t.Fatalf("perturbing %s at (%d,%d,%d) changed nothing — probe is vacuous", comp, i0, j0, k0)
	}
	return offsets
}

// assertWithin asserts that the output changed only within the declared
// bounding box. Offsets are output−perturbation, so a kernel that READS at
// +d changes the output at −d; the boxes are symmetric in the declared
// radii, which is what halo sizing uses. horizontalOnly skips the z check:
// a perturbation of the 2-D surface pressure legitimately reaches every
// level of its column (it is not halo-relevant in z, where surface fields
// are replicated).
func assertWithin(t *testing.T, offsets [][3]int, table []stencil.Term, what string, horizontalOnly bool) {
	t.Helper()
	r := stencil.RadiusOf(table)
	for _, o := range offsets {
		if abs(o[0]) > r.X || abs(o[1]) > r.Y || (!horizontalOnly && abs(o[2]) > r.Z) {
			t.Errorf("%s: output at offset (%d,%d,%d) outside declared radius (%d,%d,%d)",
				what, o[0], o[1], o[2], r.X, r.Y, r.Z)
			return
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestAdaptationFootprintWithinTable1(t *testing.T) {
	g := probeGrid()
	cfg := DefaultAdaptConfig()
	apply := func(st *state.State, out *Tendency) {
		b := st.B
		sur := NewSurface(b)
		sur.Update(st.Psa)
		// The Ĉ input is held FIXED (computed from the unperturbed state):
		// Â is the stencil part; Ĉ's dependence is the collective, which
		// the paper accounts separately.
		ref := smoothState(g, b)
		_, cres, _ := prepare(g, ref)
		Adaptation(g, cfg, st, sur, cres, out, b.Owned())
	}
	for _, comp := range []string{"U", "V", "Phi", "Psa"} {
		for _, pt := range [][3]int{{8, 5, 3}, {0, 4, 2}, {15, 5, 3}} {
			offs := probeOp(t, comp, pt[0], pt[1], pt[2], apply)
			assertWithin(t, offs, stencil.Adaptation, "Â("+comp+")", comp == "Psa")
		}
	}
}

func TestAdvectionFootprintWithinTable2(t *testing.T) {
	g := probeGrid()
	apply := func(st *state.State, out *Tendency) {
		b := st.B
		sur := NewSurface(b)
		sur.Update(st.Psa)
		ref := smoothState(g, b)
		_, cres, _ := prepare(g, ref) // σ̇ fixed: L̃ uses the last Ĉ result
		Advection(g, st, sur, cres, out, b.Owned())
	}
	for _, comp := range []string{"U", "V", "Phi", "Psa"} {
		for _, pt := range [][3]int{{8, 5, 3}, {1, 4, 2}, {14, 5, 3}} {
			offs := probeOp(t, comp, pt[0], pt[1], pt[2], apply)
			assertWithin(t, offs, stencil.Advection, "L̃("+comp+")", comp == "Psa")
		}
	}
}

func TestDivPFootprintRadiusOne(t *testing.T) {
	// D(P) must have x/y radius 1 and no z coupling: it feeds Ĉ whose
	// horizontal footprint the CA algorithm must bound.
	g := probeGrid()
	b := serialBlock(g)
	run := func(pert bool) *field.F3 {
		st := smoothState(g, b)
		if pert {
			st.U.Add(8, 5, 3, 1e-3)
			st.V.Add(8, 5, 3, 1e-3)
			st.FillLocalBounds()
		}
		sur := NewSurface(b)
		sur.Update(st.Psa)
		out := field.NewF3(b)
		DivP(g, st.U, st.V, sur, out, b.Owned())
		return out
	}
	base, pert := run(false), run(true)
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				if base.At(i, j, k) != pert.At(i, j, k) {
					dx, dy, dz := xDist(g, i, 8), j-5, k-3
					if abs(dx) > 1 || abs(dy) > 1 || dz != 0 {
						t.Fatalf("D(P) changed at offset (%d,%d,%d)", dx, dy, dz)
					}
				}
			}
		}
	}
}

func TestSmoothingFootprintWithinTable3(t *testing.T) {
	g := probeGrid()
	b := serialBlock(g)
	smo := NewSmoother(g, 1.0)
	run := func(pert bool) *state.State {
		st := smoothState(g, b)
		if pert {
			st.Phi.Add(8, 5, 3, 1e-3)
			st.U.Add(8, 5, 3, 1e-3)
			st.FillLocalBounds()
		}
		out := state.New(b)
		smo.SmoothFull(st, out, b.Owned())
		return out
	}
	base, pert := run(false), run(true)
	r := stencil.RadiusOf(stencil.Smoothing)
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				changed := base.Phi.At(i, j, k) != pert.Phi.At(i, j, k) ||
					base.U.At(i, j, k) != pert.U.At(i, j, k)
				if changed {
					dx, dy, dz := xDist(g, i, 8), j-5, k-3
					if abs(dx) > r.X || abs(dy) > r.Y || abs(dz) > r.Z {
						t.Fatalf("S̃ changed at offset (%d,%d,%d) outside radius (%d,%d,%d)",
							dx, dy, dz, r.X, r.Y, r.Z)
					}
				}
			}
		}
	}
}

func TestAdaptationZOneSided(t *testing.T) {
	// Table 1's z column reads k and k+1 only; the asymmetric deep halo of
	// the CA algorithm depends on it. Probe: a perturbation at k0 must not
	// change any output at k > k0 (outputs at k read inputs at k and k+1,
	// so influence flows downward in k only).
	g := probeGrid()
	cfg := DefaultAdaptConfig()
	apply := func(st *state.State, out *Tendency) {
		b := st.B
		sur := NewSurface(b)
		sur.Update(st.Psa)
		ref := smoothState(g, b)
		_, cres, _ := prepare(g, ref)
		Adaptation(g, cfg, st, sur, cres, out, b.Owned())
	}
	for _, comp := range []string{"U", "V", "Phi"} {
		offs := probeOp(t, comp, 8, 5, 3, apply)
		for _, o := range offs {
			if o[2] > 0 {
				t.Fatalf("Â(%s): output changed at k offset +%d — adaptation must be one-sided in z", comp, o[2])
			}
		}
	}
}
