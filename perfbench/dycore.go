package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"cadycore/internal/comm"
	"cadycore/internal/diag"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
	"cadycore/internal/topo"
)

// dyConfig is one dynamical-core configuration the benchmark runs: the
// algorithm, the mesh, the Y-Z process grid (PA = p_y, PB = p_z) and the
// paper's time-stepping parameters.
type dyConfig struct {
	Alg        dycore.Algorithm
	Nx, Ny, Nz int
	PA, PB     int
	M          int
	Dt1, Dt2   float64
}

func (c dyConfig) grid() *grid.Grid { return grid.New(c.Nx, c.Ny, c.Nz) }

func (c dyConfig) setup() dycore.Setup {
	cfg := dycore.DefaultConfig()
	cfg.M = c.M
	cfg.Dt1, cfg.Dt2 = c.Dt1, c.Dt2
	return dycore.Setup{Alg: c.Alg, PA: c.PA, PB: c.PB, Cfg: cfg}
}

func (c dyConfig) procs() int { return c.PA * c.PB }

// wantPerStep returns the exact per-step halo-exchange rounds and Ĉ
// evaluations of the algorithm (paper Section 4.4): Algorithm 2 performs 2
// and 2M, Algorithm 1 performs 3M+4 and 3M.
func (c dyConfig) wantPerStep() (exchanges, cEvals float64) {
	if c.Alg == dycore.AlgCommAvoid {
		return 2, float64(2 * c.M)
	}
	return float64(3*c.M + 4), float64(3 * c.M)
}

const (
	// warmSteps run before anything is timed: the first step of Algorithm 2
	// differs from the steady state (it owes no deferred smoothing) and the
	// first steps touch freshly allocated memory.
	warmSteps = 2
	// simWindow is the number of steps after the warm-up over which the
	// simulated-clock and count metrics are taken. It is fixed, so those
	// metrics repeat bitwise however long the timed phase runs.
	simWindow = 4
	// perturbAmp is the relative amplitude of the seeded initial-state
	// perturbation.
	perturbAmp = 1e-3
	// maxMassDrift is the dry-mass drift the correctness gate tolerates over
	// a run segment (DESIGN §6 invariant 8).
	maxMassDrift = 0.01
	// segSteps is the length of one run segment: 24 steps are 1.6 model
	// hours at Δt2 = 240 s. The model diverges under Held–Suarez forcing
	// after a few model hours on both dycore workloads' meshes, from the
	// seeded state (first non-finite after 49 steps of yz_pow2 and 70 of
	// ca_fig16) and from the unperturbed one (109 and 144), so much longer
	// segments would fail the gate; README.md records the defect.
	segSteps = 24
)

// unitNoise maps (seed, counter) to a deterministic value in [-1, 1) through
// the splitmix64 finalizer.
func unitNoise(seed int64, n uint64) float64 {
	z := (uint64(seed)+1)*0x9e3779b97f4a7c15 ^ (n+1)*0xd1342543de82ef95
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<52) - 1
}

// seededInit is the Held–Suarez initial state with every owned point of U, V
// and Φ scaled by 1 + perturbAmp·ε, where ε is drawn from (seed, global
// index, component). It depends on global indices only, so every
// decomposition of the same seed starts from the same global state.
func seededInit(seed int64) dycore.InitFunc {
	return func(g *grid.Grid, st *state.State) {
		heldsuarez.InitialState(g, st)
		b := st.B
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					n := uint64((k*g.Ny+j)*g.Nx + i)
					st.U.Set(i, j, k, st.U.At(i, j, k)*(1+perturbAmp*unitNoise(seed, 3*n)))
					st.V.Set(i, j, k, st.V.At(i, j, k)*(1+perturbAmp*unitNoise(seed, 3*n+1)))
					st.Phi.Set(i, j, k, st.Phi.At(i, j, k)*(1+perturbAmp*unitNoise(seed, 3*n+2)))
				}
			}
		}
	}
}

// boundary is the step-boundary barrier on the Go side: ranks park on a
// mutex and condition variable, which the simulated LogP clock cannot see
// (comm.Barrier would charge it). The last rank to arrive runs onLast while
// its peers are parked; its answer (stop or go on) is every rank's answer.
type boundary struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	arrived  int
	gen      uint64
	stop     bool
	broken   bool
	arrivals []time.Time
	onLast   func(seg, k int, arrivals []time.Time) bool
}

func newBoundary(n int, onLast func(seg, k int, arrivals []time.Time) bool) *boundary {
	b := &boundary{n: n, arrivals: make([]time.Time, n), onLast: onLast}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait parks rank at boundary k of run segment seg (k = 0: set up, k > 0:
// after step k, k = segEnd: finalized) and returns the leader's stop
// decision.
func (b *boundary) wait(rank, seg, k int) bool {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		return true
	}
	b.arrivals[rank] = now
	b.arrived++
	if b.arrived < b.n {
		gen := b.gen
		for gen == b.gen && !b.broken {
			b.cond.Wait()
		}
		return b.stop || b.broken
	}
	b.stop = b.onLast(seg, k, b.arrivals)
	b.arrived = 0
	b.gen++
	b.cond.Broadcast()
	return b.stop
}

// abort releases every parked rank; a panicking rank calls it so its peers
// do not wait forever for a boundary it never reaches.
func (b *boundary) abort() {
	b.mu.Lock()
	b.broken = true
	b.gen++
	b.cond.Broadcast()
	b.mu.Unlock()
}

// segEnd is the boundary index of a finalized run segment.
const segEnd = -1

// simStats are the simulated-clock and count metrics of the fixed window.
// They depend only on the program order of each rank, never on the wall
// clock, so traced and untraced runs must agree on them bitwise.
type simStats map[string]float64

// dyRun is the outcome of one timed dycore run.
type dyRun struct {
	SetupS     []float64 // one per setup repetition
	StepWallMs []float64 // one per timed step (boundary to boundary)
	RankStepMs []float64 // per rank and timed step: wall time inside Step
	SkewMs     []float64 // per timed boundary: slowest rank minus the median rank
	TimedSteps int
	TimedWallS float64 // sum of the timed steps' wall times
	Sim        simStats
	Finals     []*state.State // the last segment's final state
	SegErrs    []error        // the gate's verdict on each run segment
	Check      error          // per-step counts, or a rank panic
}

// runDycore builds the configuration setupReps times. The middle build is
// kept and run; the others stop once set up, half of them before the timed
// run and half after, so setup_s samples the host over the whole run. The
// kept build runs as a sequence of segments of segSteps steps, each
// started from the initial state init on a freshly built integrator and
// gated when it ends. The first warmSteps steps of every segment are not
// timed. It stops at the first step boundary after budget has elapsed since
// the first timed step (or, with fixedSteps > 0, after that many steps of
// the first segment), and never before the simulated-metric window of the
// first segment is complete. Spans go to tr when it is non-nil.
func runDycore(c dyConfig, init dycore.InitFunc, setupReps int, budget time.Duration, fixedSteps int, tr *tracer) (out dyRun) {
	g := c.grid()
	set := c.setup()
	p := set.Procs()
	hs := heldsuarez.Standard()
	defer func() {
		if r := recover(); r != nil {
			out.Check = fmt.Errorf("run panicked: %v", r)
		}
	}()
	runSpan := tr.reserve()
	runStart := time.Now()
	defer func() { tr.finish(runSpan, 0, "dycore.run", -1, runStart, time.Now()) }()

	for rep := 0; rep < setupReps; rep++ {
		kept := rep == setupReps/2
		// Each setup starts from a collected heap, so one repetition does not
		// pay for the garbage of the one before.
		runtime.GC()
		t0 := time.Now()
		w := comm.NewWorld(p, comm.TianheLike())
		inits := make([]*state.State, p)
		finals := make([]*state.State, p)
		rankStep := make([][]float64, p)
		counters := make([][2]dycore.Counters, p) // at the window's start and end
		exch := make([][2][]topo.ExchStats, p)

		var (
			lastB      time.Time
			timedStart time.Time
			stopping   bool
			stepSpan   int64
			stepStart  time.Time
			winAgg     comm.Aggregate
		)
		bd := newBoundary(p, func(seg, k int, arr []time.Time) bool {
			now := time.Now()
			switch {
			case k == segEnd:
				out.SegErrs = append(out.SegErrs, gateSegment(g, inits, finals))
				// Collect the finished segment's integrators now, outside
				// every timer, so the heap does not carry them into the next
				// segment's steps.
				runtime.GC()
				return stopping
			case k == 0:
				if seg == 0 {
					out.SetupS = append(out.SetupS, now.Sub(t0).Seconds())
					tr.add(runSpan, "dycore.setup", -1, t0, now)
					if !kept {
						return true
					}
					timedStart = now
				}
			default:
				tr.finish(stepSpan, runSpan, "dycore.boundary_step", -1, stepStart, now)
				if k > warmSteps {
					out.StepWallMs = append(out.StepWallMs, ms(now.Sub(lastB)))
					out.SkewMs = append(out.SkewMs, skewMs(arr))
				}
				if seg == 0 && k == warmSteps+simWindow {
					winAgg = w.Stats()
				}
				windowDone := seg > 0 || k >= warmSteps+simWindow
				if windowDone && ((fixedSteps > 0 && k >= fixedSteps) || (fixedSteps <= 0 && now.Sub(timedStart) >= budget)) {
					stopping = true
					return true
				}
			}
			lastB = now
			stepSpan = tr.reserve()
			stepStart = time.Now()
			return false
		})

		w.Run(func(cm *comm.Comm) {
			defer func() {
				if r := recover(); r != nil {
					bd.abort()
					panic(r)
				}
			}()
			r := cm.Rank()
			for seg := 0; ; seg++ {
				tp, ig := set.Build(cm, g)
				st := state.New(tp.Block)
				init(g, st)
				inits[r] = st.Clone()
				ig.(dycore.StateSetter).SetState(st)
				if seg == 0 {
					cm.ResetStats()
				}
				if bd.wait(r, seg, 0) {
					return
				}
				er, _ := ig.(dycore.ExchReporter)
				for k := 1; k <= segSteps; k++ {
					parent := stepSpan
					ts := time.Now()
					ig.Step()
					te := time.Now()
					hs.Apply(g, ig.Xi(), c.Dt2)
					th := time.Now()
					if k > warmSteps {
						rankStep[r] = append(rankStep[r], ms(te.Sub(ts)))
					}
					if tr != nil {
						tr.add(parent, "dycore.Step", r, ts, te)
						tr.add(parent, "heldsuarez.Apply", r, te, th)
					}
					if seg == 0 && (k == warmSteps || k == warmSteps+simWindow) {
						i := 0
						if k == warmSteps {
							// This rank has drained every message of step
							// warmSteps, and no rank sends one of the next
							// step before all have passed the boundary below,
							// so the clocks restart from one simulated epoch.
							cm.ResetStats()
						} else {
							i = 1
						}
						counters[r][i] = ig.Counters()
						if er != nil {
							exch[r][i] = er.ExchStats()
						}
					}
					if bd.wait(r, seg, k) {
						break
					}
				}
				ig.Finalize()
				finals[r] = ig.Xi()
				if bd.wait(r, seg, segEnd) {
					return
				}
			}
		})
		if !kept {
			continue
		}
		for _, rs := range rankStep {
			out.RankStepMs = append(out.RankStepMs, rs...)
		}
		for _, v := range out.StepWallMs {
			out.TimedWallS += v / 1e3
		}
		out.TimedSteps = len(out.StepWallMs)
		out.Finals = finals
		out.Sim = windowStats(w.Model(), winAgg, counters, exch)
		out.Check = checkCounts(c, out.Sim)
	}
	return out
}

// skewMs is the slowest arrival minus the median arrival at one boundary.
func skewMs(arr []time.Time) float64 {
	ts := make([]float64, len(arr))
	for i, t := range arr {
		ts[i] = float64(t.UnixNano())
	}
	mx := ts[0]
	for _, v := range ts {
		mx = math.Max(mx, v)
	}
	return (mx - median(ts)) / 1e6
}

// windowStats derives the simulated and count metrics of the simWindow steps
// after the warm-up.
func windowStats(model comm.NetModel, agg comm.Aggregate, counters [][2]dycore.Counters, exch [][2][]topo.ExchStats) simStats {
	s := float64(simWindow)
	c0, c1 := counters[0][0], counters[0][1]
	var compSum float64
	for _, v := range agg.RankComp {
		compSum += v
	}
	// Exchanger accounting accumulates from construction, so take the
	// window difference per rank and exchanger, then the critical path (max
	// over ranks) per exchanger, as dycore.RunResult.Exch does.
	var exposed, hidden float64
	if len(exch) > 0 && exch[0][1] != nil {
		for e := range exch[0][1] {
			var ex, hi float64
			for r := range exch {
				ex = math.Max(ex, exch[r][1][e].ExposedSec-exch[r][0][e].ExposedSec)
				hi = math.Max(hi, exch[r][1][e].HiddenSec-exch[r][0][e].HiddenSec)
			}
			exposed += ex
			hidden += hi
		}
	}
	return simStats{
		"sim_step_ms":                     agg.SimTime * 1e3 / s,
		"dycore.point_updates_per_step":   compSum * model.ComputeRate / s,
		"dycore.halo_exchanges_per_step":  float64(c1.HaloExchanges-c0.HaloExchanges) / s,
		"dycore.c_evaluations_per_step":   float64(c1.CEvaluations-c0.CEvaluations) / s,
		"filter.calls_per_step":           float64(c1.FilterCalls-c0.FilterCalls) / s,
		"dycore.smoothing_calls_per_step": float64(c1.SmoothingCalls-c0.SmoothingCalls) / s,
		"comm.msgs_per_step":              float64(agg.MsgsSent) / s,
		"comm.bytes_per_step":             float64(agg.BytesSent) / s,
		"comm.sim_collective_ms_per_step": agg.CollectiveTime() * 1e3 / s,
		"comm.sim_stencil_ms_per_step":    agg.StencilTime() * 1e3 / s,
		"comm.sim_comp_ms_per_step":       agg.CompTimeMax * 1e3 / s,
		"comm.overlap_fraction":           agg.OverlapFraction(),
		"comm.comp_imbalance":             agg.CompImbalance(),
		"topo.exposed_sim_ms_per_step":    exposed * 1e3 / s,
		"topo.hidden_sim_ms_per_step":     hidden * 1e3 / s,
	}
}

// gateSegment is the correctness gate of one run segment: a finite final
// state and dry-mass drift under maxMassDrift.
func gateSegment(g *grid.Grid, inits, finals []*state.State) error {
	if !diag.AllFinite(finals) {
		return fmt.Errorf("final state is not finite")
	}
	m0, m1 := diag.GlobalDryMass(g, inits), diag.GlobalDryMass(g, finals)
	if drift := math.Abs(m1-m0) / m0; !(drift < maxMassDrift) {
		return fmt.Errorf("dry-mass drift %.3g exceeds %.3g", drift, maxMassDrift)
	}
	return nil
}

// checkCounts checks the algorithm's exact per-step exchange and Ĉ counts.
func checkCounts(c dyConfig, sim simStats) error {
	wantEx, wantC := c.wantPerStep()
	if got := sim["dycore.halo_exchanges_per_step"]; got != wantEx {
		return fmt.Errorf("halo exchanges per step = %g, want %g", got, wantEx)
	}
	if got := sim["dycore.c_evaluations_per_step"]; got != wantC {
		return fmt.Errorf("Ĉ evaluations per step = %g, want %g", got, wantC)
	}
	return nil
}

// refSteps is the length of the untimed reference comparison.
const refSteps = 3

// referenceDiff runs the configuration and a serial Algorithm 1 run of the
// same seed for refSteps steps through dycore.RunWithOpts, and checks their
// final states agree: to round-off for Algorithm 1 (the Y-Z decomposition
// must not change the answer), to 1e-3 of the field scale for Algorithm 2
// (the approximate nonlinear iteration's order, as in the dycore tests).
func referenceDiff(c dyConfig, seed int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("reference run panicked: %v", r)
		}
	}()
	g := c.grid()
	hs := heldsuarez.Standard()
	opts := dycore.RunOpts{Hook: func(g *grid.Grid, st *state.State, _ int) { hs.Apply(g, st, c.Dt2) }}
	init := seededInit(seed)
	par, _ := dycore.RunWithOpts(c.setup(), g, comm.TianheLike(), init, refSteps, opts)
	ser := c
	ser.Alg, ser.PA, ser.PB = dycore.AlgBaselineYZ, 1, 1
	ref, _ := dycore.RunWithOpts(ser.setup(), g, comm.Zero(), init, refSteps, opts)
	if !diag.AllFinite(par.Finals) || !diag.AllFinite(ref.Finals) {
		return fmt.Errorf("reference comparison: non-finite state")
	}
	scale := 0.0
	for _, v := range dycore.FlattenState(g, ref.Finals) {
		scale = math.Max(scale, math.Abs(v))
	}
	d := dycore.MaxDiffGlobal(g, ref.Finals, par.Finals)
	tol := 1e-12 * scale
	if c.Alg == dycore.AlgCommAvoid {
		tol = 1e-3 * scale
	}
	if !(d <= tol) {
		return fmt.Errorf("final state differs from the serial reference by %.3g (tolerance %.3g)", d, tol)
	}
	return nil
}
