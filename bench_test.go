// Package cadycore's root benchmark suite regenerates every evaluation
// artifact of the paper as a testing.B benchmark (DESIGN.md §4 maps each to
// its figure/table):
//
//	BenchmarkFigure1CommVsComp   — Figure 1 (communication vs computation share)
//	BenchmarkFigure6Collective*  — Figure 6 (collective communication time)
//	BenchmarkFigure7Stencil*     — Figure 7 (stencil communication time)
//	BenchmarkFigure8Runtime*     — Figure 8 (total dynamical-core runtime)
//	BenchmarkTheoryCosts         — Section 5.3 model vs measured counters
//	BenchmarkAblation*           — per-ingredient contribution of Algorithm 2
//	Benchmark<kernel>            — micro-benchmarks of the substrate kernels
//
// The Figure benches report the simulated (LogP-model) times as custom
// metrics: simC_ms (collective), simS_ms (stencil), simT_ms (total),
// comm_pct, and overlap_pct (the hidden share of communication time).
// Real wall time per run is the usual ns/op. Run with
//
//	go test -bench=. -benchmem .
//
// and use cmd/experiments for the full multi-p sweeps.
package cadycore

import (
	"math/rand"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/field"
	"cadycore/internal/fft"
	"cadycore/internal/filter"
	"cadycore/internal/grid"
	"cadycore/internal/harness"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/operators"
	"cadycore/internal/state"
	"cadycore/internal/topo"
)

// benchOptions is the mesh/model the figure benches run: small enough for
// go test, big enough to show the paper's shapes.
func benchOptions() harness.Options {
	o := harness.Defaults()
	o.Nx, o.Ny, o.Nz = 96, 48, 12
	o.Steps = 1
	o.Ps = []int{16}
	return o
}

func runCell(b *testing.B, alg dycore.Algorithm, p int, mut func(*dycore.Config)) dycore.RunResult {
	b.Helper()
	o := benchOptions()
	g := grid.New(o.Nx, o.Ny, o.Nz)
	cfg := dycore.DefaultConfig()
	cfg.M = o.M
	cfg.Dt1, cfg.Dt2 = o.Dt1, o.Dt2
	if mut != nil {
		mut(&cfg)
	}
	var set dycore.Setup
	if alg == dycore.AlgBaselineXY {
		px, py, ok := harness.XYFactors(p, o.Nx, o.Ny)
		if !ok {
			b.Skip("no X-Y layout")
		}
		set = dycore.Setup{Alg: alg, PA: px, PB: py, Cfg: cfg}
	} else {
		py, pz, ok := harness.YZFactors(p, o.Ny, o.Nz)
		if !ok {
			b.Skip("no Y-Z layout")
		}
		set = dycore.Setup{Alg: alg, PA: py, PB: pz, Cfg: cfg}
	}
	hs := heldsuarez.Standard()
	hook := func(g *grid.Grid, st *state.State, step int) { hs.Apply(g, st, cfg.Dt2) }
	var res dycore.RunResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = dycore.RunWithHook(set, g, o.Model, heldsuarez.InitialState, o.Steps, hook)
	}
	b.StopTimer()
	return res
}

func reportFigureMetrics(b *testing.B, res dycore.RunResult) {
	b.Helper()
	b.ReportMetric(res.Agg.CollectiveTime()*1e3, "simC_ms")
	b.ReportMetric(res.Agg.StencilTime()*1e3, "simS_ms")
	b.ReportMetric(res.Agg.SimTime*1e3, "simT_ms")
	ct := res.Agg.TotalCommTime()
	b.ReportMetric(100*ct/(ct+res.Agg.CompTimeMax), "comm_pct")
	b.ReportMetric(100*res.Agg.OverlapFraction(), "overlap_pct")
}

// ---- Figure 1 ----

func BenchmarkFigure1CommVsComp(b *testing.B) {
	res := runCell(b, dycore.AlgBaselineYZ, 16, nil)
	reportFigureMetrics(b, res)
}

// ---- Figures 6, 7, 8: one bench per algorithm; the simC/simS/simT
// metrics of the three benches are the three series of each figure ----

func BenchmarkFigure678OriginalXY(b *testing.B) {
	reportFigureMetrics(b, runCell(b, dycore.AlgBaselineXY, 16, nil))
}

func BenchmarkFigure678OriginalYZ(b *testing.B) {
	reportFigureMetrics(b, runCell(b, dycore.AlgBaselineYZ, 16, nil))
}

func BenchmarkFigure678CommAvoiding(b *testing.B) {
	reportFigureMetrics(b, runCell(b, dycore.AlgCommAvoid, 16, nil))
}

// ---- Section 5.3 ----

func BenchmarkTheoryCosts(b *testing.B) {
	o := benchOptions()
	var rows []harness.TheoryRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o2 := o
		o2.Prime()
		rows = harness.TheoryTable(o2)
	}
	b.StopTimer()
	if len(rows) > 0 {
		b.ReportMetric(float64(rows[len(rows)-1].BytesMeasured)/1e6, "MB_meas")
	}
}

// ---- Ablations: each ingredient of Algorithm 2 switched off ----

func BenchmarkAblationFullCA(b *testing.B) {
	reportFigureMetrics(b, runCell(b, dycore.AlgCommAvoid, 16, nil))
}

func BenchmarkAblationExactC(b *testing.B) {
	reportFigureMetrics(b, runCell(b, dycore.AlgCommAvoid, 16, func(c *dycore.Config) { c.ExactC = true }))
}

func BenchmarkAblationNoOverlap(b *testing.B) {
	reportFigureMetrics(b, runCell(b, dycore.AlgCommAvoid, 16, func(c *dycore.Config) { c.NoOverlap = true }))
}

func BenchmarkAblationNoFusedSmoothing(b *testing.B) {
	reportFigureMetrics(b, runCell(b, dycore.AlgCommAvoid, 16, func(c *dycore.Config) { c.NoFusedSmoothing = true }))
}

// ---- Substrate micro-benchmarks ----

func benchState(g *grid.Grid) (*state.State, field.Block) {
	b := field.Block{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		I0: 0, I1: g.Nx, J0: 0, J1: g.Ny, K0: 0, K1: g.Nz,
		Hx: 3, Hy: 2, Hz: 1,
	}
	st := state.New(b)
	heldsuarez.InitialState(g, st)
	st.FillLocalBounds()
	return st, b
}

func BenchmarkAdaptationKernel(b *testing.B) {
	g := grid.New(96, 48, 12)
	st, blk := benchState(g)
	sur := operators.NewSurface(blk)
	sur.Update(st.Psa)
	divp := field.NewF3(blk)
	operators.DivP(g, st.U, st.V, sur, divp, blk.Owned())
	cres := operators.NewCRes(blk)
	operators.CSum(g, nil, nil, divp, cres, blk.Owned(), 0, g.Nz)
	out := operators.NewTendency(blk)
	cfg := operators.DefaultAdaptConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		operators.Adaptation(g, cfg, st, sur, cres, out, blk.Owned())
	}
	b.SetBytes(int64(8 * blk.Owned().Count()))
}

func BenchmarkAdvectionKernel(b *testing.B) {
	g := grid.New(96, 48, 12)
	st, blk := benchState(g)
	sur := operators.NewSurface(blk)
	sur.Update(st.Psa)
	divp := field.NewF3(blk)
	operators.DivP(g, st.U, st.V, sur, divp, blk.Owned())
	cres := operators.NewCRes(blk)
	operators.CSum(g, nil, nil, divp, cres, blk.Owned(), 0, g.Nz)
	cres.PWI.FillXPeriodic()
	cres.DBar.FillXPeriodic()
	field.FillPolesY(cres.PWI, field.Even, field.CenterY, blk.Hy)
	out := operators.NewTendency(blk)
	// Persistent scratch, like the integrators hold — the nil-scratch
	// Advection path is for one-shot/test use only.
	sc := operators.NewAdvScratch(blk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		operators.AdvectionScratch(g, st, sur, cres, out, blk.Owned(), sc)
	}
	b.SetBytes(int64(8 * blk.Owned().Count()))
}

func BenchmarkSmoothingKernel(b *testing.B) {
	g := grid.New(96, 48, 12)
	st, blk := benchState(g)
	smo := operators.NewSmoother(g, 1.0)
	out := state.New(blk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smo.SmoothFull(st, out, blk.Owned())
	}
	b.SetBytes(int64(8 * blk.Owned().Count()))
}

func BenchmarkDivPKernel(b *testing.B) {
	g := grid.New(96, 48, 12)
	st, blk := benchState(g)
	sur := operators.NewSurface(blk)
	sur.Update(st.Psa)
	out := field.NewF3(blk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		operators.DivP(g, st.U, st.V, sur, out, blk.Owned())
	}
	b.SetBytes(int64(8 * blk.Owned().Count()))
}

// BenchmarkFillLocalBounds times the local boundary fill on rank 0's block
// of the ca_fig16 cell (96×48×12 on 4×4 Y-Z ranks, Algorithm 2's M = 3
// halos): the whole-storage fill the step runs after each exchange, and the
// fill after an update confined to the first adaptation rect.
func BenchmarkFillLocalBounds(b *testing.B) {
	g := grid.New(96, 48, 12)
	hx, hy, hz := dycore.CommAvoidHalo(3)
	blk := field.Block{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		I0: 0, I1: g.Nx, J0: 0, J1: g.Ny / 4, K0: 0, K1: g.Nz / 4,
		Hx: hx, Hy: hy, Hz: hz,
	}
	st := state.New(blk)
	heldsuarez.InitialState(g, st)
	// The first adaptation update's rect: the owned block grown by the
	// remaining deep-halo depth (3M − 1) in y and toward higher k, clamped
	// to the domain.
	r := blk.Owned()
	r.J1 = min(r.J1+hy-3, g.Ny)
	r.K1 = min(r.K1+hz-1, g.Nz)
	for _, bc := range []struct {
		name string
		fn   func()
	}{
		{"storage", st.FillLocalBounds},
		{"update_rect", func() { st.FillLocalBoundsRect(r) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.fn()
			}
		})
	}
}

func BenchmarkFilterSerial(b *testing.B) {
	g := grid.New(96, 48, 12)
	st, blk := benchState(g)
	rng := rand.New(rand.NewSource(1))
	for i := range st.Phi.Data {
		st.Phi.Data[i] = rng.NormFloat64()
	}
	f := filter.New(g, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Apply(st.Phi, blk.Owned())
	}
}

func BenchmarkFFT720(b *testing.B) {
	// The paper's zonal extent.
	p := fft.NewPlan(720)
	x := make([]complex128, 720)
	for i := range x {
		x[i] = complex(float64(i%7), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkHaloExchangeShallow(b *testing.B) {
	benchExchange(b, 1, 1)
}

func BenchmarkHaloExchangeDeep(b *testing.B) {
	benchExchange(b, 11, 9)
}

func benchExchange(b *testing.B, dy, dz int) {
	b.Helper()
	g := grid.New(96, 48, 12)
	const py, pz = 4, 2
	w := comm.NewWorld(py*pz, comm.Zero())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *comm.Comm) {
			tp := topo.New(c, g, 1, py, pz, 3, 11, 9)
			st := state.New(tp.Block)
			heldsuarez.InitialState(g, st)
			ex := tp.NewExchanger(0, dy, dz)
			ex.Exchange(st.F3s(), st.F2s())
		})
	}
}

func BenchmarkRingAllreduce(b *testing.B) {
	const p, n = 8, 4096
	w := comm.NewWorld(p, comm.Zero())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *comm.Comm) {
			data := make([]float64, n)
			c.Allreduce(data, comm.Sum)
		})
	}
	b.SetBytes(int64(8 * n * p))
}