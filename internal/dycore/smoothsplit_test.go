package dycore

import (
	"math/rand"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/operators"
	"cadycore/internal/state"
	"cadycore/internal/topo"
)

// TestSmoothingSplitMatchesFull checks S̃ = S̃2∘S̃1 through the actual fused
// machinery: former smoothing on owned rows, band exchange of originals,
// latter smoothing — against a serial full smoothing of the same global
// field.
func TestSmoothingSplitMatchesFull(t *testing.T) {
	g := testGrid()
	cfg := testCfg(2)
	rng := rand.New(rand.NewSource(99))
	vals := make(map[[3]int]float64)
	randAt := func(i, j, k int) float64 {
		key := [3]int{i, j, k}
		if v, ok := vals[key]; ok {
			return v
		}
		v := rng.NormFloat64()
		vals[key] = v
		return v
	}
	// Pre-generate deterministically for all points.
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				randAt(i, j, k)
			}
		}
	}

	fill := func(st *state.State) {
		b := st.B
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					st.Phi.Set(i, j, k, randAt(i, j, k))
				}
			}
		}
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				st.Psa.Set(i, j, randAt(i, j, 0)*100)
			}
		}
	}

	// Serial full smoothing reference.
	wantPhi := func() *field.F3 {
		w := comm.NewWorld(1, comm.Zero())
		var out *field.F3
		w.Run(func(c *comm.Comm) {
			hx, hy, hz := CommAvoidHalo(cfg.M)
			tp := topo.New(c, g, 1, 1, 1, hx, hy, hz)
			st := state.New(tp.Block)
			fill(st)
			st.FillLocalBounds()
			smo := operators.NewSmoother(g, cfg.Beta)
			res := state.New(tp.Block)
			smo.SmoothFull(st, res, tp.Block.Owned())
			out = res.Phi
		})
		return out
	}()

	for _, py := range []int{2, 3, 5} {
		w := comm.NewWorld(py, comm.Zero())
		got := make([]*field.F3, py)
		w.Run(func(c *comm.Comm) {
			hx, hy, hz := CommAvoidHalo(cfg.M)
			tp := topo.New(c, g, 1, py, 1, hx, hy, hz)
			ca := NewCommAvoid(cfg, g, tp)
			st := state.New(tp.Block)
			fill(st)
			ca.xi.CopyFrom(st)

			owned := tp.Block.Owned()
			ca.xi.FillLocalBounds()
			field.Copy(ca.origPhi, ca.xi.Phi)
			field.Copy2(ca.origPsa, ca.xi.Psa)
			ca.smo.P2Former(ca.xi.Phi, ca.eta1.Phi, owned, ca.availY)
			ca.xi.Phi.CopyRect(owned, ca.eta1.Phi)
			ca.xi.FillLocalBounds()

			f3, f2 := ca.exchangeFields(ca.xi)
			pend := ca.deepEx.Begin(f3, f2)
			bandPend := ca.bandEx.Begin([]*field.F3{ca.origPhi}, []*field.F2{ca.origPsa})
			pend.Finish()
			bandPend.Finish()
			ca.localFill(ca.xi)
			ca.origPhi.FillXPeriodic()
			ca.origPsa.FillXPeriodic()
			dy, _ := state.MirrorDepth()
			field.FillPolesY(ca.origPhi, field.Even, field.CenterY, dy)
			field.FillPolesY2(ca.origPsa, field.Even, dy)

			s2r := ca.expandInternal(ca.depthY, ca.depthZ)
			ca.smo.P2Latter(ca.origPhi, ca.xi.Phi, s2r, ca.availY)

			got[c.Rank()] = ca.xi.Phi
		})
		// Compare on the smoothed-valid region of each rank: owned plus
		// depthY/depthZ halo.
		for r, phi := range got {
			b := phi.B
			lo := b.J0 - (CommAvoidHaloY(cfg.M) - 2)
			hi := b.J1 + (CommAvoidHaloY(cfg.M) - 2)
			if lo < 0 {
				lo = 0
			}
			if hi > g.Ny {
				hi = g.Ny
			}
			for k := b.K0; k < b.K1; k++ {
				for j := lo; j < hi; j++ {
					for i := 0; i < g.Nx; i++ {
						gotV := phi.At(i, j, k)
						wantV := wantPhi.At(i, j, k)
						d := gotV - wantV
						if d < 0 {
							d = -d
						}
						if d > 1e-12 {
							t.Fatalf("py=%d rank=%d Phi(%d,%d,%d): got %v want %v (diff %g)",
								py, r, i, j, k, gotV, wantV, d)
						}
					}
				}
			}
		}
	}
}

// CommAvoidHaloY exposes the y halo width for the test above.
func CommAvoidHaloY(m int) int {
	_, hy, _ := CommAvoidHalo(m)
	return hy
}
