package dycore

import (
	"math"
	"sync/atomic"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/operators"
	"cadycore/internal/state"
)

// TestUnfilledGhostsNeverRead pins the local boundary-fill contract: the
// fills write only the ghosts a later sweep can read. Every stored cell they
// no longer write is set to NaN — mirror ghosts deeper than the stencil read
// radius once after SetState, and the x halos of the rows outside each update
// rect after every rect-restricted fill. A kernel that read any of them
// would spread the NaN into the owned state; the run must instead stay
// finite and bitwise equal to an unpoisoned run with the same simulated
// clock.
func TestUnfilledGhostsNeverRead(t *testing.T) {
	small := testGrid() // 16×10×4
	ca := func(mut func(*Config)) Setup {
		cfg := testCfg(2)
		if mut != nil {
			mut(&cfg)
		}
		return Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg}
	}
	cases := []struct {
		name string
		g    *grid.Grid
		set  Setup
	}{
		// Algorithm 2 at M = 3 on 4×4 ranks: 6-row, 3-layer blocks under an
		// 11-row, 9-layer halo, so pole and top/bottom ranks (and their
		// neighbors) store many ghost layers past the boundary.
		{"ca-m3-4x4", grid.New(32, 24, 12), Setup{Alg: AlgCommAvoid, PA: 4, PB: 4, Cfg: testCfg(3)}},
		{"yz", small, Setup{Alg: AlgBaselineYZ, PA: 2, PB: 2, Cfg: testCfg(2)}},
		{"xy", small, Setup{Alg: AlgBaselineXY, PA: 2, PB: 2, Cfg: testCfg(2)}},
		{"ca-shifted-mirror", small, ca(func(c *Config) { c.ShiftedPoleMirror = true })},
		{"ca-staged", small, Setup{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: func() Config {
			c := testCfg(3)
			c.StageM = 1
			return c
		}()}},
		{"ca-workers", small, ca(func(c *Config) { c.Workers = 2 })},
		{"ca-nooverlap", small, ca(func(c *Config) { c.NoOverlap = true })},
		{"ca-exactc", small, ca(func(c *Config) { c.ExactC = true })},
		{"ca-nofused", small, ca(func(c *Config) { c.NoFusedSmoothing = true })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const steps = 3
			clean, cleanT, _ := runGhostProbe(tc.set, tc.g, steps, false)
			dirty, dirtyT, n := runGhostProbe(tc.set, tc.g, steps, true)
			for r, st := range dirty {
				if !st.AllFinite() {
					t.Fatalf("rank %d: final state not finite — a kernel read an unfilled ghost", r)
				}
			}
			a, b := FlattenState(tc.g, clean), FlattenState(tc.g, dirty)
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("poisoned run differs from clean run at flat index %d: %v vs %v", i, b[i], a[i])
				}
			}
			if cleanT != dirtyT {
				t.Errorf("simulated time %v with poisoned ghosts, %v without", dirtyT, cleanT)
			}
			// The probe must have poisoned something, or it shows nothing.
			if tc.set.Alg == AlgCommAvoid && n.deep == 0 {
				t.Error("no mirror ghost lay past the read depth")
			}
			if tc.set.Alg != AlgBaselineXY && n.halo == 0 {
				t.Error("no x halo lay outside an update rect")
			}
		})
	}
}

// ghostCounts tallies the cells a probe run poisoned.
type ghostCounts struct{ deep, halo int64 }

// runGhostProbe runs steps of the setup with a Held–Suarez hook (which
// leaves ghosts stale between steps, as production runs do) and returns the
// final states, the simulated time and, when poison is set, how many cells
// were poisoned.
func runGhostProbe(set Setup, g *grid.Grid, steps int, poison bool) ([]*state.State, float64, ghostCounts) {
	p := set.Procs()
	w := comm.NewWorld(p, comm.TianheLike())
	finals := make([]*state.State, p)
	hs := heldsuarez.Standard()
	var deep, halo atomic.Int64
	w.Run(func(c *comm.Comm) {
		tp, ig := set.Build(c, g)
		st := state.New(tp.Block)
		testInit(g, st)
		ig.(StateSetter).SetState(st)
		if poison {
			deep.Add(poisonDeepGhosts(g, ig))
			co := coreOf(ig)
			if tp.Block.OwnsFullX() {
				co.afterRectFill = func(st *state.State, cr *operators.CRes, r field.Rect) {
					halo.Add(poisonStaleHalos(g, st, cr, r))
				}
			}
		}
		for k := 0; k < steps; k++ {
			ig.Step()
			hs.Apply(g, ig.Xi(), set.Cfg.Dt2)
		}
		ig.Finalize()
		finals[c.Rank()] = ig.Xi()
	})
	return finals, w.Stats().SimTime, ghostCounts{deep.Load(), halo.Load()}
}

func coreOf(ig Integrator) *core {
	switch v := ig.(type) {
	case *CommAvoid:
		return v.core
	case *Baseline:
		return v.core
	}
	panic("coreOf: unknown integrator")
}

// poisonDeepGhosts sets to NaN every stored cell of the integrator's states,
// Ĉ caches and latter-smoothing copies that lies deeper past a pole or the
// model top/bottom than the mirror depth, and returns the count.
func poisonDeepGhosts(g *grid.Grid, ig Integrator) int64 {
	dy, dz := state.MirrorDepth()
	co := coreOf(ig)
	var f3s []*field.F3
	var f2s []*field.F2
	for _, st := range []*state.State{co.xi, co.psi, co.eta1, co.eta2, co.mid} {
		f3s = append(f3s, st.U, st.V, st.Phi)
		f2s = append(f2s, st.Psa)
	}
	for _, cr := range []*operators.CRes{co.cLast, co.cNew} {
		f3s = append(f3s, cr.PWI)
		f2s = append(f2s, cr.DBar)
	}
	if ca, ok := ig.(*CommAvoid); ok {
		f3s = append(f3s, ca.origPhi)
		f2s = append(f2s, ca.origPsa)
	}
	deepY := func(j int) bool { return j < -dy || j >= g.Ny+dy }
	var n int64
	for _, f := range f3s {
		r := f.B.WithHalo()
		for k := r.K0; k < r.K1; k++ {
			deepZ := k < -dz || k >= g.Nz+dz
			for j := r.J0; j < r.J1; j++ {
				if !deepZ && !deepY(j) {
					continue
				}
				for i := r.I0; i < r.I1; i++ {
					f.Set(i, j, k, math.NaN())
					n++
				}
			}
		}
	}
	for _, f := range f2s {
		r := f.B.WithHalo()
		for j := r.J0; j < r.J1; j++ {
			if !deepY(j) {
				continue
			}
			for i := r.I0; i < r.I1; i++ {
				f.Set(i, j, math.NaN())
				n++
			}
		}
	}
	return n
}

// poisonStaleHalos sets to NaN the x halo cells of every in-domain row a
// fill confined to r left unwritten: rows outside r, excluding the mirror
// ghost rows and planes (which the mirrors rewrite whole). For a Ĉ result
// the PWI rows are interfaces 0 … Nz and its written rows r.K0 … r.K1.
func poisonStaleHalos(g *grid.Grid, st *state.State, cr *operators.CRes, r field.Rect) int64 {
	var n int64
	if st != nil {
		for _, f := range st.F3s() {
			n += poisonRowHalos3(f, r, g.Nz)
		}
		n += poisonRowHalos2(st.Psa, r)
		return n
	}
	ri := r
	ri.K1++
	return poisonRowHalos3(cr.PWI, ri, g.Nz+1) + poisonRowHalos2(cr.DBar, r)
}

func poisonRowHalos3(f *field.F3, r field.Rect, kEnd int) int64 {
	s := f.B.WithHalo()
	var n int64
	for k := max(s.K0, 0); k < min(s.K1, kEnd); k++ {
		for j := max(s.J0, 0); j < min(s.J1, f.B.Ny); j++ {
			if j >= r.J0 && j < r.J1 && k >= r.K0 && k < r.K1 {
				continue
			}
			for i := s.I0; i < s.I1; i++ {
				if i < 0 || i >= f.B.Nx {
					f.Set(i, j, k, math.NaN())
					n++
				}
			}
		}
	}
	return n
}

func poisonRowHalos2(f *field.F2, r field.Rect) int64 {
	s := f.B.WithHalo()
	var n int64
	for j := max(s.J0, 0); j < min(s.J1, f.B.Ny); j++ {
		if j >= r.J0 && j < r.J1 {
			continue
		}
		for i := s.I0; i < s.I1; i++ {
			if i < 0 || i >= f.B.Nx {
				f.Set(i, j, math.NaN())
				n++
			}
		}
	}
	return n
}
