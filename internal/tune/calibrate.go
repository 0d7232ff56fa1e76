package tune

import (
	"time"

	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/field"
	"cadycore/internal/filter"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/operators"
	"cadycore/internal/state"
)

// CalibrateOptions controls the calibration measurements.
type CalibrateOptions struct {
	// Model is the network model of the simulated machine the LogP
	// microbenchmarks run against (default TianheLike).
	Model comm.NetModel
	// Rounds is the ping-pong repetition count (default 16).
	Rounds int
	// SmallMsg and LargeMsg are the two ping-pong payload sizes in float64
	// words used for the two-point α/β fit (defaults 8 and 8192).
	SmallMsg, LargeMsg int
	// Nx, Ny, Nz set the kernel-benchmark mesh (default 64×32×8).
	Nx, Ny, Nz int
	// MinKernelTime is the minimum wall time each kernel is measured for
	// (default 50 ms; lower it for smoke tests).
	MinKernelTime time.Duration
}

func (o CalibrateOptions) withDefaults() CalibrateOptions {
	zero := comm.NetModel{}
	if o.Model == zero {
		o.Model = comm.TianheLike()
	}
	if o.Rounds <= 0 {
		o.Rounds = 16
	}
	if o.SmallMsg <= 0 {
		o.SmallMsg = 8
	}
	if o.LargeMsg <= o.SmallMsg {
		o.LargeMsg = 8192
	}
	if o.Nx < 8 || o.Ny < 5 || o.Nz < 2 {
		o.Nx, o.Ny, o.Nz = 64, 32, 8
	}
	if o.MinKernelTime <= 0 {
		o.MinKernelTime = 50 * time.Millisecond
	}
	return o
}

// Calibrate measures the machine and returns a versioned profile: the LogP
// constants come from ping-pong microbenchmarks on the simulated network
// (two payload sizes, linear fit), the kernel rates from short wall-clock
// timings of the real stencil/filter kernels.
func Calibrate(opt CalibrateOptions) Profile {
	opt = opt.withDefaults()
	alpha, beta := fitLogP(opt)
	p := Profile{
		Version:     ProfileVersion,
		Alpha:       alpha,
		Beta:        beta,
		Overhead:    opt.Model.SendOverhead,
		ComputeRate: opt.Model.ComputeRate,
		Kernels:     measureKernels(opt),
	}
	return p
}

// fitLogP runs 2-rank ping-pong at two payload sizes and solves
// t(n) = α + β·8n for α and β from the simulated round times.
func fitLogP(opt CalibrateOptions) (alpha, beta float64) {
	oneWay := func(words int) float64 {
		w := comm.NewWorld(2, opt.Model)
		w.Run(func(c *comm.Comm) {
			buf := make([]float64, words)
			for r := 0; r < opt.Rounds; r++ {
				if c.Rank() == 0 {
					c.Send(1, r, buf)
					c.Recv(1, r)
				} else {
					c.Recv(0, r)
					c.Send(0, r, buf)
				}
			}
		})
		// SimTime covers Rounds round trips = 2·Rounds one-way transfers.
		return w.Stats().SimTime / float64(2*opt.Rounds)
	}
	t1 := oneWay(opt.SmallMsg)
	t2 := oneWay(opt.LargeMsg)
	beta = (t2 - t1) / (8 * float64(opt.LargeMsg-opt.SmallMsg))
	if beta < 0 {
		beta = 0
	}
	alpha = t1 - beta*8*float64(opt.SmallMsg)
	if alpha <= 0 {
		alpha = t1
	}
	return alpha, beta
}

// measureKernels times the real kernels on a full-domain block and converts
// to point-updates per second (FilterRow to nx·log2(nx) equivalents/s).
func measureKernels(opt CalibrateOptions) KernelRates {
	g := grid.New(opt.Nx, opt.Ny, opt.Nz)
	blk := field.Block{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		I0: 0, I1: g.Nx, J0: 0, J1: g.Ny, K0: 0, K1: g.Nz,
		Hx: 3, Hy: 2, Hz: 1,
	}
	st := state.New(blk)
	heldsuarez.InitialState(g, st)
	st.FillLocalBounds()
	points := float64(g.Nx * g.Ny * g.Nz)

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
	acfg := operators.DefaultAdaptConfig()
	sc := operators.NewAdvScratch(blk)
	smo := operators.NewSmoother(g, 1.0)
	dst := state.New(blk)

	var r KernelRates
	r.Adapt = points / timeIt(opt.MinKernelTime, func() {
		operators.Adaptation(g, acfg, st, sur, cres, out, blk.Owned())
	})
	r.Advect = points / timeIt(opt.MinKernelTime, func() {
		operators.AdvectionScratch(g, st, sur, cres, out, blk.Owned(), sc)
	})
	r.Smooth = points / timeIt(opt.MinKernelTime, func() {
		smo.SmoothFull(st, dst, blk.Owned())
	})
	r.CSum = points / timeIt(opt.MinKernelTime, func() {
		operators.DivP(g, st.U, st.V, sur, divp, blk.Owned())
		operators.CSum(g, nil, nil, divp, cres, blk.Owned(), 0, g.Nz)
	})

	// Filter: time Apply over the whole block with a 60° cutoff and convert
	// the transformed-row count to nx·log2(nx) equivalents.
	flt := filter.New(g, dycore.DefaultConfig().FilterCutoffDeg)
	rows := 0
	sec := timeIt(opt.MinKernelTime, func() {
		rows = flt.Apply(st.Phi, blk.Owned())
	})
	if rows < 1 {
		rows = 1
	}
	r.FilterRow = float64(rows) * rowCost(g.Nx) / sec
	return r
}

// timeIt runs fn in a loop until at least minTime has elapsed and returns
// the mean seconds per call.
func timeIt(minTime time.Duration, fn func()) float64 {
	fn() // warm up
	n := 0
	start := time.Now()
	for {
		fn()
		n++
		if d := time.Since(start); d >= minTime && n >= 3 {
			return d.Seconds() / float64(n)
		}
	}
}
