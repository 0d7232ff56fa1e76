// Command perfbench is the repository benchmark. It drives the dynamical
// core and the job service from outside, through their public entry points,
// on three seeded workloads, checks that the outputs are correct, and prints
// one JSON result line: end-to-end metrics on an untraced run (--trace 0),
// per-layer metrics on a traced run (--trace 1). README.md in this directory
// maps every metric to its layer and workload.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ca_fig16 --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"cadycore/internal/dycore"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd lists the metrics a user of the system sees; every workload
// reports all of them (README.md says how each reads on each workload).
// Simulated LogP times carry the unit sim_ms so they are never mistaken for
// wall-clock times.
var endToEnd = []metricDef{
	{"sypd", "SYPD", "higher"},
	{"step_wall_ms_p50", "ms", "lower"},
	{"step_wall_ms_p75", "ms", "lower"},
	{"sim_step_ms", "sim_ms", "lower"},
	{"job_latency_ms_p50", "ms", "lower"},
	{"job_latency_ms_p90", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer lists the per-layer metrics of the traced run, named
// <module>.<quantity> after the repository's packages.
var perLayer = []metricDef{
	{"fft.roundtrip_us", "us", "lower"},
	{"filter.apply_ms", "ms", "lower"},
	{"filter.calls_per_step", "count", "lower"},
	{"state.fill_local_bounds_ms", "ms", "lower"},
	{"operators.adaptation_ms", "ms", "lower"},
	{"operators.advection_ms", "ms", "lower"},
	{"operators.smoothing_ms", "ms", "lower"},
	{"heldsuarez.apply_ms", "ms", "lower"},
	{"dycore.step_ms", "ms", "lower"},
	{"dycore.rank_skew_ms", "ms", "lower"},
	{"dycore.point_updates_per_step", "count", "lower"},
	{"dycore.halo_exchanges_per_step", "count", "lower"},
	{"dycore.c_evaluations_per_step", "count", "lower"},
	{"comm.msgs_per_step", "count", "lower"},
	{"comm.bytes_per_step", "bytes", "lower"},
	{"comm.sim_collective_ms_per_step", "sim_ms", "lower"},
	{"comm.sim_stencil_ms_per_step", "sim_ms", "lower"},
	{"comm.sim_comp_ms_per_step", "sim_ms", "lower"},
	{"comm.overlap_fraction", "ratio", "higher"},
	{"comm.comp_imbalance", "ratio", "lower"},
	{"topo.exposed_sim_ms_per_step", "sim_ms", "lower"},
	{"topo.hidden_sim_ms_per_step", "sim_ms", "higher"},
	{"server.submit_ms_p50", "ms", "lower"},
	{"server.poll_ms_p50", "ms", "lower"},
	{"server.metrics_scrape_ms", "ms", "lower"},
	{"server.queue_wait_ms_p50", "ms", "lower"},
	{"server.backpressure_retries_per_job", "count", "lower"},
	{"server.run_ms_p50", "ms", "lower"},
	{"checkpoint.snapshots_per_job", "count", "lower"},
	{"checkpoint.write_ms", "ms", "lower"},
	{"checkpoint.bytes", "bytes", "lower"},
	{"tune.plan_ms", "ms", "lower"},
	{"tune.plan_cache_hit_ratio", "ratio", "higher"},
	{"trace.overhead_ms", "ms", "lower"},
	{"failed_ratio", "ratio", "lower"},
}

// simMetricNames are the per-layer metrics read from the simulated LogP
// clock and the program's counters; traced and untraced runs must agree on
// them bitwise.
var simMetricNames = []string{
	"sim_step_ms",
	"filter.calls_per_step",
	"dycore.point_updates_per_step",
	"dycore.halo_exchanges_per_step",
	"dycore.c_evaluations_per_step",
	"dycore.smoothing_calls_per_step",
	"comm.msgs_per_step",
	"comm.bytes_per_step",
	"comm.sim_collective_ms_per_step",
	"comm.sim_stencil_ms_per_step",
	"comm.sim_comp_ms_per_step",
	"comm.overlap_fraction",
	"comm.comp_imbalance",
	"topo.exposed_sim_ms_per_step",
	"topo.hidden_sim_ms_per_step",
}

// workloads maps each workload to the dycore configuration it runs. For
// service_mix it is the explicit ca job class, which the traced run also
// drives in process to report the dycore-side layers.
var workloads = map[string]dyConfig{
	// The paper's Fig. 6–8 cell: Algorithm 2 on 96×48×12 with P = 16.
	"ca_fig16": {Alg: dycore.AlgCommAvoid, Nx: 96, Ny: 48, Nz: 12, PA: 4, PB: 4, M: 3, Dt1: 40, Dt2: 240},
	// Algorithm 1 on a power-of-two mesh, P = 8: the radix-2 FFT path.
	"yz_pow2": {Alg: dycore.AlgBaselineYZ, Nx: 128, Ny: 64, Nz: 16, PA: 4, PB: 2, M: 3, Dt1: 40, Dt2: 240},
	// The service mix's ca class on its first mesh.
	"service_mix": {Alg: dycore.AlgCommAvoid, Nx: 48, Ny: 24, Nz: 8, PA: 2, PB: 2, M: svcM, Dt1: 30, Dt2: 180},
}

// setupReps is how many times a run sets up; setup_s is their median. A
// dycore setup takes about 30–80 ms and a service boot about 0.2 s, and
// single setups vary by ±20 % within a run.
const setupReps = 15

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload produced before it is shaped into a result.
type outcome struct {
	Metrics   map[string]float64
	Attempted int
	Failures  []string // one line per failed operation or check
	Computed  map[string]float64
	Samples   int // timed steps (dycore) or jobs (service) behind the percentiles
}

func (o *outcome) check(what string, err error) {
	o.Attempted++
	if err != nil {
		o.Failures = append(o.Failures, what+": "+err.Error())
	}
}

func main() {
	workload := flag.String("workload", "", "workload name: ca_fig16, yz_pow2 or service_mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints the host line and the result line.
func run(workload string, seed int64, seconds float64, traced bool, w io.Writer) error {
	c, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	host := hostFingerprint(seed)
	hb, _ := json.Marshal(map[string]any{"host": host, "workload": workload, "trace": traced})
	fmt.Fprintln(w, string(hb))

	workDir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	budget := time.Duration(seconds * float64(time.Second))

	var tr *tracer
	if traced {
		tr = newTracer(fmt.Sprintf("%s-seed%d-%d", workload, seed, time.Now().UnixNano()))
	}
	rss := startRSS()
	steal0, total0 := cpuSteal()
	var o outcome
	var err error
	switch {
	case workload == "service_mix" && traced:
		o, err = serviceTraced(c, seed, budget, workDir, tr)
	case workload == "service_mix":
		o, err = serviceUntraced(seed, budget, workDir)
	case traced:
		o, err = dycoreTraced(c, seed, budget, workDir, tr)
	default:
		o, err = dycoreUntraced(c, seed, budget)
	}
	peakRSS := rss.stop()
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		o.Metrics["failed_ratio"] = float64(len(o.Failures)) / float64(o.Attempted)
		defs = perLayer
		path, err := tr.write(filepath.Join(".bench_build", "traces"),
			traceDump{Host: host, Workload: workload, Seed: seed, Computed: o.Computed})
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	} else {
		o.Metrics["peak_rss_mb"] = peakRSS
	}
	for _, f := range o.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", f)
	}
	steal1, total1 := cpuSteal()
	fmt.Fprintf(os.Stderr, "perfbench: %s, %d timed samples, %d gated operations, host steal %.1f%% of CPU time\n",
		workload, o.Samples, o.Attempted, 100*finiteOrZero((steal1-steal0)/(total1-total0)))
	res := result{Correct: len(o.Failures) == 0, Attempted: o.Attempted, Failed: len(o.Failures),
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := o.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (value %v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}

// dycoreE2E derives the end-to-end metrics of a timed dycore run. A job is
// one model step of the resident world here: the unit of work a caller of
// the dynamical core waits for.
func dycoreE2E(c dyConfig, r dyRun) map[string]float64 {
	return map[string]float64{
		"setup_s":            median(r.SetupS),
		"sypd":               sypd(float64(r.TimedSteps)*c.Dt2, r.TimedWallS),
		"step_wall_ms_p50":   quantile(r.StepWallMs, 0.5),
		"step_wall_ms_p75":   quantile(r.StepWallMs, 0.75),
		"sim_step_ms":        r.Sim["sim_step_ms"],
		"job_latency_ms_p50": quantile(r.StepWallMs, 0.5),
		"job_latency_ms_p90": quantile(r.StepWallMs, 0.9),
		"jobs_per_s":         float64(r.TimedSteps) / r.TimedWallS,
	}
}

// checkRun counts each run segment of r as one gated operation and the
// per-step count check as another. A run that produced no timed step cannot
// be measured at all, which is an error.
func checkRun(o *outcome, label string, r dyRun) error {
	for i, err := range r.SegErrs {
		o.check(fmt.Sprintf("%srun segment %d", label, i), err)
	}
	o.check(label+"per-step counts", r.Check)
	if r.TimedSteps == 0 {
		return fmt.Errorf("%srun: no timed step (%v)", label, r.Check)
	}
	return nil
}

func dycoreUntraced(c dyConfig, seed int64, budget time.Duration) (outcome, error) {
	var o outcome
	r := runDycore(c, seededInit(seed), setupReps, budget, 0, nil)
	if err := checkRun(&o, "", r); err != nil {
		return o, err
	}
	o.check("reference diff", referenceDiff(c, seed))
	o.Metrics = dycoreE2E(c, r)
	o.Samples = r.TimedSteps
	return o, nil
}

// dycoreTraced runs the workload untraced and then traced for half the
// budget each, checks their simulated metrics agree bitwise, and adds the
// kernel, checkpoint, planner and server probes at the workload's shape.
func dycoreTraced(c dyConfig, seed int64, budget time.Duration, workDir string, tr *tracer) (outcome, error) {
	var o outcome
	un := runDycore(c, seededInit(seed), 1, budget/2, 0, nil)
	if err := checkRun(&o, "untraced ", un); err != nil {
		return o, err
	}
	tc := runDycore(c, seededInit(seed), 1, budget/2, 0, tr)
	if err := checkRun(&o, "traced ", tc); err != nil {
		return o, err
	}
	o.check("reference diff", referenceDiff(c, seed))
	o.check("traced sim metrics equal untraced", bitwiseEqual(un.Sim, tc.Sim))

	m, computed := probeKernels(c, seed, tc.Sim["dycore.smoothing_calls_per_step"], tr)
	o.Computed = computed
	for k, v := range tc.Sim {
		m[k] = v
	}
	m["dycore.step_ms"] = median(tc.RankStepMs)
	m["dycore.rank_skew_ms"] = median(tc.SkewMs)
	m["trace.overhead_ms"] = median(tc.StepWallMs) - median(un.StepWallMs)
	o.Samples = tc.TimedSteps

	wms, bytes, err := probeCheckpoint(c.grid(), tc.Finals, workDir)
	o.check("checkpoint probe", err)
	m["checkpoint.write_ms"], m["checkpoint.bytes"] = wms, bytes
	pms, err := probePlan(c, c.procs())
	o.check("planner probe", err)
	m["tune.plan_ms"] = pms

	sv, err := probeServer(c, seed, workDir, tr)
	o.check("server probe", err)
	if err != nil {
		return o, fmt.Errorf("server probe: %w", err)
	}
	serverLayer(m, sv)
	m["tune.plan_cache_hit_ratio"] = planHitRatio(sv)
	o.Metrics = m
	return o, nil
}

// serverLayer fills the server and checkpoint-count metrics from the jobs a
// client observed.
func serverLayer(m map[string]float64, sv svcRun) {
	var submit, poll, wait, run []float64
	retries := 0
	for _, j := range sv.Jobs {
		submit = append(submit, j.SubmitMs)
		poll = append(poll, j.PollMs...)
		wait = append(wait, j.QueueWaitMs)
		run = append(run, j.RunMs)
		retries += j.Retries
	}
	n := float64(len(sv.Jobs))
	m["server.submit_ms_p50"] = median(submit)
	m["server.poll_ms_p50"] = median(poll)
	m["server.metrics_scrape_ms"] = median(sv.ScrapeMs)
	m["server.queue_wait_ms_p50"] = median(wait)
	m["server.run_ms_p50"] = median(run)
	m["server.backpressure_retries_per_job"] = float64(retries) / n
	m["checkpoint.snapshots_per_job"] = sv.Snapshots / n
}

// serviceE2E derives the end-to-end metrics of a service_mix run: latency
// and throughput per job, and per model step inside the jobs (run time over
// completed steps), so the dycore metrics read as the service's delivered
// simulation rate.
func serviceE2E(r svcRun) map[string]float64 {
	var lat, perStep []float64
	simSeconds, simMs, steps := 0.0, 0.0, 0
	done := 0
	for _, j := range r.Jobs {
		lat = append(lat, j.LatencyMs)
		if j.Err != nil || j.Steps == 0 {
			continue
		}
		done++
		perStep = append(perStep, j.RunMs/float64(j.Steps))
		simMs += j.SimStepMs * float64(j.Steps)
		steps += j.Steps
		simSeconds += float64(j.Steps) * j.Dt2
	}
	return map[string]float64{
		"setup_s":            median(r.SetupS),
		"sypd":               sypd(simSeconds, r.WallS),
		"step_wall_ms_p50":   quantile(perStep, 0.5),
		"step_wall_ms_p75":   quantile(perStep, 0.75),
		"sim_step_ms":        simMs / float64(steps),
		"job_latency_ms_p50": quantile(lat, 0.5),
		"job_latency_ms_p90": quantile(lat, 0.9),
		"jobs_per_s":         float64(done) / r.WallS,
	}
}

func checkJobs(o *outcome, r svcRun) {
	for _, j := range r.Jobs {
		o.check("job "+j.Class, j.Err)
	}
}

func serviceUntraced(seed int64, budget time.Duration, workDir string) (outcome, error) {
	var o outcome
	r := runServiceMix(seed, setupReps, budget, workDir, nil)
	if r.Err != nil {
		return o, r.Err
	}
	checkJobs(&o, r)
	o.Metrics = serviceE2E(r)
	o.Samples = len(r.Jobs)
	return o, nil
}

// serviceTraced runs the service mix untraced and traced for half the budget
// each, then drives the ca job class in process (untraced and traced, fixed
// length) for the dycore-side layers and their bitwise check, and probes the
// kernels, checkpoint writes and cold plans at the service's shapes.
func serviceTraced(c dyConfig, seed int64, budget time.Duration, workDir string, tr *tracer) (outcome, error) {
	var o outcome
	un := runServiceMix(seed, 1, budget/2, workDir, nil)
	if un.Err != nil {
		return o, un.Err
	}
	checkJobs(&o, un)
	tc := runServiceMix(seed, 1, budget/2, workDir, tr)
	if tc.Err != nil {
		return o, tc.Err
	}
	checkJobs(&o, tc)

	steps := warmSteps + simWindow + 2
	dun := runDycore(c, seededInit(seed), 1, 0, steps, nil)
	if err := checkRun(&o, "in-process ca ", dun); err != nil {
		return o, err
	}
	dtc := runDycore(c, seededInit(seed), 1, 0, steps, tr)
	if err := checkRun(&o, "traced in-process ca ", dtc); err != nil {
		return o, err
	}
	o.check("traced sim metrics equal untraced", bitwiseEqual(dun.Sim, dtc.Sim))

	m, computed := probeKernels(c, seed, dtc.Sim["dycore.smoothing_calls_per_step"], tr)
	o.Computed = computed
	for k, v := range dtc.Sim {
		m[k] = v
	}
	m["dycore.step_ms"] = median(dtc.RankStepMs)
	m["dycore.rank_skew_ms"] = median(dtc.SkewMs)
	serverLayer(m, tc)
	m["checkpoint.bytes"] = median(tc.CkptBytes)
	wms, _, err := probeCheckpoint(c.grid(), dtc.Finals, workDir)
	o.check("checkpoint probe", err)
	m["checkpoint.write_ms"] = wms
	var plans []float64
	for _, k := range svcAutoKeys {
		kc := c
		kc.Nx, kc.Ny, kc.Nz = k.Mesh[0], k.Mesh[1], k.Mesh[2]
		pms, err := probePlan(kc, k.Procs)
		o.check("planner probe", err)
		plans = append(plans, pms)
	}
	m["tune.plan_ms"] = median(plans)
	m["tune.plan_cache_hit_ratio"] = planHitRatio(tc)
	m["trace.overhead_ms"] = median(latencies(tc)) - median(latencies(un))
	o.Samples = len(tc.Jobs)
	o.Metrics = m
	return o, nil
}

// planHitRatio is the share of a run's auto-layout jobs that found their plan
// in the service's cache: 1 − plans written / auto jobs.
func planHitRatio(r svcRun) float64 {
	return finiteOrZero(1 - float64(r.ColdPlans)/float64(r.AutoJobs))
}

func latencies(r svcRun) []float64 {
	var xs []float64
	for _, j := range r.Jobs {
		xs = append(xs, j.LatencyMs)
	}
	return xs
}

// bitwiseEqual checks that two runs' simulated metrics are identical bit for
// bit.
func bitwiseEqual(a, b simStats) error {
	for _, k := range simMetricNames {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return fmt.Errorf("%s: untraced %v, traced %v", k, a[k], b[k])
		}
	}
	return nil
}

// hostInfo is the fingerprint every result records.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit when the checkout is a git repository;
	// Source is a SHA-256 over the Go sources and go.mod files either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
	Seed   int64  `json:"seed"`
}

func hostFingerprint(seed int64) hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(), Source: sourceDigest(), Seed: seed}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// gitCommit reads HEAD from .git without running git.
func gitCommit() string {
	b, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(b))
	if r, ok := strings.CutPrefix(ref, "ref: "); ok {
		if b, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
			return strings.TrimSpace(string(b))
		}
		return "unknown"
	}
	return ref
}

// sourceDigest hashes every .go and go.mod file of the checkout in path
// order, skipping the build directory and version-control metadata.
func sourceDigest() string {
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (p == ".git" || p == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuSteal reads the machine's cumulative steal and total CPU time from
// /proc/stat: time the hypervisor gave this machine's virtual CPUs to other
// guests, which slows every wall-clock metric (0, 0 when unavailable).
func cpuSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// rssSampler samples the process's resident set every 10 ms until stop.
type rssSampler struct {
	quit chan struct{}
	done chan []float64
}

func startRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var mb []float64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, ok := residentMB(); ok {
				mb = append(mb, v)
			}
			select {
			case <-s.quit:
				s.done <- mb
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the samples' 99th percentile: the
// peak resident set, robust to where one garbage-collection cycle happens
// to fall.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	return quantile(<-s.done, 0.99)
}

// residentMB reads the current resident set from /proc/self/statm.
func residentMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }
