// Package diag computes physical diagnostics of the model state: global
// invariants (dry mass, energy), zonal-mean climatological fields (the
// quantities Held–Suarez experiments report), and stability checks. The
// functions operate on the gathered per-rank states of a run (each rank
// contributes its owned region exactly once, so sums are decomposition
// independent up to floating-point reordering).
package diag

import (
	"math"

	"cadycore/internal/grid"
	"cadycore/internal/physics"
	"cadycore/internal/state"
)

// GlobalDryMass returns Σ_ij area_ij · p_s(i,j) / g — the total dry air mass
// (kg). The dynamical core conserves it up to the surface-pressure
// diffusion and smoothing terms. Surface fields are replicated across
// z-ranks, so only the blocks at the model top (K0 = 0) contribute.
func GlobalDryMass(g *grid.Grid, sts []*state.State) float64 {
	sum := 0.0
	for _, st := range sts {
		b := st.B
		if b.K0 != 0 {
			continue
		}
		for j := b.J0; j < b.J1; j++ {
			w := g.CellArea(j)
			for i := b.I0; i < b.I1; i++ {
				ps := physics.StandardSurfacePressure + st.Psa.At(i, j)
				sum += w * ps
			}
		}
	}
	return sum / physics.Gravity
}

// MeanSurfacePressure returns the area-weighted global mean surface
// pressure (Pa).
func MeanSurfacePressure(g *grid.Grid, sts []*state.State) float64 {
	sum, area := 0.0, 0.0
	for _, st := range sts {
		b := st.B
		if b.K0 != 0 {
			continue
		}
		for j := b.J0; j < b.J1; j++ {
			w := g.CellArea(j)
			for i := b.I0; i < b.I1; i++ {
				sum += w * (physics.StandardSurfacePressure + st.Psa.At(i, j))
				area += w
			}
		}
	}
	return sum / area
}

// KineticEnergy returns the total kinetic energy ½∫(U² + V²) dm-like
// integral in the transformed variables (J-like units). Under the tensor
// transform the conserved quadratic form is the plain sum of squares of the
// transformed fields weighted by volume, which is why the transform is used.
func KineticEnergy(g *grid.Grid, sts []*state.State) float64 {
	sum := 0.0
	for _, st := range sts {
		b := st.B
		for k := b.K0; k < b.K1; k++ {
			ds := g.DSigma[k]
			for j := b.J0; j < b.J1; j++ {
				w := g.CellArea(j) * ds
				for i := b.I0; i < b.I1; i++ {
					u := st.U.At(i, j, k)
					v := st.V.At(i, j, k)
					sum += 0.5 * w * (u*u + v*v)
				}
			}
		}
	}
	return sum
}

// AvailableEnergy returns the quadratic "available potential + surface"
// energy of the transformed system, Σ (Φ² + b²·(p'_sa/p0)²-weighted) — the
// companion of KineticEnergy in the conservation statement of the IAP
// transform.
func AvailableEnergy(g *grid.Grid, sts []*state.State) float64 {
	sum := 0.0
	for _, st := range sts {
		b := st.B
		for k := b.K0; k < b.K1; k++ {
			ds := g.DSigma[k]
			for j := b.J0; j < b.J1; j++ {
				w := g.CellArea(j) * ds
				for i := b.I0; i < b.I1; i++ {
					p := st.Phi.At(i, j, k)
					sum += 0.5 * w * p * p
				}
			}
		}
		if b.K0 != 0 {
			continue // surface term: count each replicated column once
		}
		for j := b.J0; j < b.J1; j++ {
			w := g.CellArea(j)
			for i := b.I0; i < b.I1; i++ {
				ph := physics.B * st.Psa.At(i, j) / physics.P0
				sum += 0.5 * w * ph * ph
			}
		}
	}
	return sum
}

// TotalEnergy is KineticEnergy + AvailableEnergy — the quantity the
// latitude–longitude finite-difference core is prized for conserving.
func TotalEnergy(g *grid.Grid, sts []*state.State) float64 {
	return KineticEnergy(g, sts) + AvailableEnergy(g, sts)
}

// ZonalMeanU returns the zonal-mean physical zonal wind ū[k][j] (m/s).
func ZonalMeanU(g *grid.Grid, sts []*state.State) [][]float64 {
	out := alloc2(g.Nz, g.Ny)
	cnt := alloc2(g.Nz, g.Ny)
	for _, st := range sts {
		b := st.B
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					ps := physics.StandardSurfacePressure + st.Psa.At(i, j)
					p := physics.PFromPs(ps)
					if p > 0 {
						out[k][j] += st.U.At(i, j, k) / p
						cnt[k][j]++
					}
				}
			}
		}
	}
	normalize(out, cnt)
	return out
}

// ZonalMeanT returns the zonal-mean temperature T̄[k][j] (K).
func ZonalMeanT(g *grid.Grid, sts []*state.State) [][]float64 {
	out := alloc2(g.Nz, g.Ny)
	cnt := alloc2(g.Nz, g.Ny)
	for _, st := range sts {
		b := st.B
		for k := b.K0; k < b.K1; k++ {
			tTil := physics.StandardTemperature(g.Sigma[k])
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					ps := physics.StandardSurfacePressure + st.Psa.At(i, j)
					p := physics.PFromPs(ps)
					if p > 0 {
						out[k][j] += physics.TemperatureFromPhi(st.Phi.At(i, j, k), p, tTil)
						cnt[k][j]++
					}
				}
			}
		}
	}
	normalize(out, cnt)
	return out
}

// MaxWind returns the largest physical wind speed component (m/s) — the CFL
// monitor of long runs. A NaN wind (or surface pressure) makes it NaN: a
// diverged state must not read as calm.
func MaxWind(g *grid.Grid, sts []*state.State) float64 {
	m := 0.0
	for _, st := range sts {
		b := st.B
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					ps := physics.StandardSurfacePressure + st.Psa.At(i, j)
					p := physics.PFromPs(ps)
					if p <= 0 {
						continue
					}
					u := math.Abs(st.U.At(i, j, k)) / p
					v := math.Abs(st.V.At(i, j, k)) / p
					if math.IsNaN(u) || math.IsNaN(v) {
						return math.NaN()
					}
					m = math.Max(m, math.Max(u, v))
				}
			}
		}
	}
	return m
}

// AllFinite reports whether every gathered state is finite.
func AllFinite(sts []*state.State) bool {
	for _, st := range sts {
		if !st.AllFinite() {
			return false
		}
	}
	return true
}

func alloc2(nz, ny int) [][]float64 {
	out := make([][]float64, nz)
	for k := range out {
		out[k] = make([]float64, ny)
	}
	return out
}

func normalize(out, cnt [][]float64) {
	for k := range out {
		for j := range out[k] {
			if cnt[k][j] > 0 {
				out[k][j] /= cnt[k][j]
			}
		}
	}
}
