package main

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/fft"
	"cadycore/internal/field"
	"cadycore/internal/filter"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/operators"
	"cadycore/internal/state"
	"cadycore/internal/tune"
)

// timeCall returns the median wall time of one call of fn in ms: fn runs in
// batches sized to take at least 2 ms each, and the median batch wins.
func timeCall(fn func()) float64 {
	fn()
	fn()
	n := 1
	for n < 1<<16 {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t) >= 2*time.Millisecond {
			break
		}
		n *= 2
	}
	xs := make([]float64, 15)
	for b := range xs {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		xs[b] = ms(time.Since(t)) / float64(n)
	}
	return median(xs)
}

// rank0Block is the block rank 0 owns under the configuration's uniform Y-Z
// decomposition, with the algorithm's halo widths (deep for Algorithm 2).
func rank0Block(c dyConfig) field.Block {
	hx, hy, hz := c.setup().HaloWidths()
	return field.Block{Nx: c.Nx, Ny: c.Ny, Nz: c.Nz,
		I0: 0, I1: c.Nx, J0: 0, J1: c.Ny / c.PA, K0: 0, K1: c.Nz / c.PB,
		Hx: hx, Hy: hy, Hz: hz}
}

// fillLocalBoundsPerStep is the number of State.FillLocalBounds calls one
// rank makes per step, counted from the seed's Step structure with overlap
// on: Algorithm 1 makes 3 per adaptation update, 1 per adaptation midpoint,
// 3 per advection update, 1 for its midpoint and 3 around the smoothing
// (10M+13); Algorithm 2 makes 2 around the former smoothing, 2 around the
// deep exchange, 1 after the latter smoothing, 1 per adaptation update and
// midpoint (4M) and 6 in the advection phase (4M+11).
func fillLocalBoundsPerStep(c dyConfig) float64 {
	if c.Alg == dycore.AlgCommAvoid {
		return float64(4*c.M + 11)
	}
	return float64(10*c.M + 13)
}

// probeKernels times the kernels on rank 0's block of the configuration and
// scales each per-call time to ms per step with its per-step call count:
// 3M adaptation and 3 advection updates per step, one F̃ application of the
// four tendency components after each of those 3M+3 updates, the measured
// smoothing calls, fillLocalBoundsPerStep boundary fills and one Held–Suarez
// forcing. The probes cover the owned block; Algorithm 2's redundant
// computation in its deep halo is not priced here (it shows in
// dycore.point_updates_per_step). computed collects operation counts and
// bytes moved derived from array sizes.
func probeKernels(c dyConfig, seed int64, smoothPerStep float64, tr *tracer) (out, computed map[string]float64) {
	g := c.grid()
	cfg := c.setup().Cfg
	b := rank0Block(c)
	owned := b.Owned()
	st := state.New(b)
	seededInit(seed)(g, st)
	st.FillLocalBounds()
	rng := rand.New(rand.NewSource(seed))
	out = make(map[string]float64)
	computed = make(map[string]float64)
	pts := float64(owned.Count())
	m := float64(c.M)

	probe := func(name string, fn func()) float64 {
		t0 := time.Now()
		v := timeCall(fn)
		tr.add(0, "probe."+name, -1, t0, time.Now())
		return v
	}

	// fft: one RealPlan round trip of a latitude row.
	rp := fft.NewRealPlan(c.Nx)
	row := make([]float64, c.Nx)
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	back := make([]float64, c.Nx)
	spec := make([]complex128, rp.SpecLen())
	scratch := make([]complex128, rp.ScratchLen())
	out["fft.roundtrip_us"] = 1e3 * probe("fft", func() {
		rp.Forward(row, spec, scratch)
		rp.Inverse(spec, back, scratch)
	})
	computed["fft.bytes_per_roundtrip"] = float64(2 * 8 * c.Nx)

	// filter: F̃ of the four tendency components over the owned block.
	flt := filter.New(g, cfg.FilterCutoffDeg)
	tnd := operators.NewTendency(b)
	for _, f := range tnd.F3s() {
		for i := range f.Data {
			f.Data[i] = rng.NormFloat64()
		}
	}
	for i := range tnd.DPsa.Data {
		tnd.DPsa.Data[i] = rng.NormFloat64()
	}
	rows := 0
	filterMs := probe("filter", func() {
		rows = flt.Apply(tnd.DU, owned) + flt.Apply(tnd.DV, owned) + flt.Apply(tnd.DPhi, owned) + flt.Apply2(tnd.DPsa, owned)
	})
	out["filter.apply_ms"] = filterMs * (3*m + 3)
	computed["filter.rows_per_call"] = float64(rows)
	computed["filter.bytes_per_call"] = float64(rows * c.Nx * 8 * 2)

	// state: the local boundary fill at the algorithm's halo widths.
	sx, sy, sz := b.StorageDims()
	out["state.fill_local_bounds_ms"] = probe("fill_local_bounds", st.FillLocalBounds) * fillLocalBoundsPerStep(c)
	computed["state.fill_local_bounds_calls_per_step"] = fillLocalBoundsPerStep(c)
	computed["state.fill_local_bounds_halo_bytes"] = float64(3*8*(sx*sy*sz)) - 3*8*pts

	// operators: Â (+ the p'_sa row), L̃ and S̃ over the owned block.
	sur := operators.NewSurface(b)
	sur.Update(st.Psa)
	cres := operators.NewCRes(b)
	tend := operators.NewTendency(b)
	var w int
	out["operators.adaptation_ms"] = probe("adaptation", func() {
		w = operators.Adaptation3D(g, st, sur, cres, tend, owned) + operators.AdaptationPsa(g, cfg.Adapt, st, cres, tend, owned)
	}) * 3 * m
	computed["operators.adaptation_points_per_call"] = float64(w)
	sc := operators.NewAdvScratch(b)
	out["operators.advection_ms"] = probe("advection", func() {
		w = operators.Advection3D(g, st, sur, cres, tend, owned, sc)
		operators.AdvectionPsa(tend, owned)
	}) * 3
	computed["operators.advection_points_per_call"] = float64(w)
	smo := operators.NewSmoother(g, cfg.Beta)
	sm := state.New(b)
	out["operators.smoothing_ms"] = probe("smoothing", func() { w = smo.SmoothFull(st, sm, owned) }) * smoothPerStep
	computed["operators.smoothing_points_per_call"] = float64(w)
	for _, k := range []string{"adaptation", "advection", "smoothing"} {
		// Each of these reads U, V, Φ and writes three 3-D outputs.
		computed["operators."+k+"_bytes_per_call"] = 6 * 8 * pts
	}

	// heldsuarez: the forcing hook, once per step.
	hst := st.Clone()
	hs := heldsuarez.Standard()
	out["heldsuarez.apply_ms"] = probe("heldsuarez", func() { hs.Apply(g, hst, c.Dt2) })
	computed["heldsuarez.bytes_per_call"] = 6 * 8 * pts
	return out, computed
}

// probeCheckpoint times one durable snapshot of finals — checkpoint.Gather
// then checkpoint.WriteAtomic into dir — and reports its median time over
// five writes and the file size.
func probeCheckpoint(g *grid.Grid, finals []*state.State, dir string) (writeMs, bytes float64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	path := filepath.Join(dir, "probe.ck")
	defer os.Remove(path)
	xs := make([]float64, 5)
	for i := range xs {
		t := time.Now()
		if err := checkpoint.WriteAtomic(path, checkpoint.Gather(g, finals)); err != nil {
			return 0, 0, err
		}
		xs[i] = ms(time.Since(t))
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return median(xs), float64(fi.Size()), nil
}

// probePlan times one cold tune.Planner.Plan (no cache) with the planner the
// job service builds by default.
func probePlan(c dyConfig, procs int) (float64, error) {
	pl := &tune.Planner{Profile: tune.ProfileFromModel(comm.TianheLike()), TopK: 2, PilotSteps: 1}
	t := time.Now()
	_, err := pl.Plan(c.grid(), procs, c.setup().Cfg)
	return ms(time.Since(t)), err
}

// finiteOrZero guards ratios whose denominator can be empty.
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
