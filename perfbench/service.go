package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"cadycore/internal/dycore"
	"cadycore/internal/server"
)

// svcJob is one generated submission of the service mix.
type svcJob struct {
	Class string
	Spec  server.JobSpec
}

// Every job of the service mix has the shape of cmd/loadgen's default job,
// which the CI service benches run: a 2×2 Y-Z layout (or 4 ranks for the
// auto layout), m = 2, 2 steps, the service's default time steps. The meshes
// vary around loadgen's 48×24×8: n_x = 48 and 40 take the Bluestein FFT
// path, 64 the radix-2 path.
var svcMeshes = [][3]int{{48, 24, 8}, {40, 24, 8}, {64, 24, 8}}

const (
	svcM     = 2
	svcSteps = 2
)

// svcAutoKeys are the (mesh, procs) keys of the auto-layout jobs, one per
// mesh: few enough that the planner's cache is hit within a run, more than
// one so some plans run cold inside the timed phase. (48×24×8, 4) is the key
// of `loadgen -auto`.
var svcAutoKeys = []struct {
	Mesh  [3]int
	Procs int
}{{svcMeshes[0], 4}, {svcMeshes[1], 4}, {svcMeshes[2], 2}}

// svcBlock is the composition of every block of 9 consecutive jobs a client
// sends: the three classes in equal shares, each over the three meshes.
//   - yz: `loadgen` with its defaults;
//   - ca: `loadgen -alg ca -ckpt-every 1`, a durable checkpoint after every
//     step (the CI chaos smoke's cadence);
//   - auto: `loadgen -auto`, over the auto keys.
//
// Fixing the composition keeps the mix the same for every seed; the seed
// draws the order within each block and every job's perturbation.
func svcBlock() []server.JobSpec {
	var out []server.JobSpec
	for _, m := range svcMeshes {
		out = append(out, server.JobSpec{Alg: "yz", PA: 2, PB: 2, Nx: m[0], Ny: m[1], Nz: m[2], M: svcM, Steps: svcSteps})
	}
	for _, m := range svcMeshes {
		out = append(out, server.JobSpec{Alg: "ca", PA: 2, PB: 2, Nx: m[0], Ny: m[1], Nz: m[2], M: svcM, Steps: svcSteps,
			CheckpointEvery: 1})
	}
	for _, k := range svcAutoKeys {
		out = append(out, server.JobSpec{Layout: "auto", Procs: k.Procs, Nx: k.Mesh[0], Ny: k.Mesh[1], Nz: k.Mesh[2],
			M: svcM, Steps: svcSteps})
	}
	return out
}

// jobClass names a spec's class: its algorithm, or "auto".
func jobClass(sp server.JobSpec) string {
	if sp.Layout == "auto" {
		return "auto"
	}
	return sp.Alg
}

// genJobs draws client's job sequence from seed: blocks of svcBlock in a
// seeded order, each job with a seeded perturbation. The same (seed, client)
// always gives the same sequence.
func genJobs(seed int64, client, n int) []svcJob {
	r := rand.New(rand.NewSource(seed*7919 + int64(client)))
	block := svcBlock()
	out := make([]svcJob, 0, n)
	for len(out) < n {
		for _, i := range r.Perm(len(block)) {
			sp := block[i]
			sp.PerturbAmp, sp.PerturbSeed = perturbAmp, 1+r.Int63n(1<<30)
			out = append(out, svcJob{Class: jobClass(sp), Spec: sp})
		}
	}
	return out[:n]
}

// warmJobs is one job per class, the service's warm-up.
func warmJobs(seed int64) []svcJob {
	var out []svcJob
	seen := map[string]bool{}
	for _, j := range genJobs(seed, -1, len(svcBlock())) {
		if !seen[j.Class] {
			seen[j.Class] = true
			out = append(out, j)
		}
	}
	return out
}

// jobResult is what a client observed for one job.
type jobResult struct {
	Class       string
	Steps       int     // steps completed
	Dt2         float64 // model seconds per step, as the service normalized it
	LatencyMs   float64 // submit to terminal state, client side
	SubmitMs    float64 // POST /jobs round trips, retries included
	PollMs      []float64
	Retries     int // 429/503 answers before the job was admitted
	QueueWaitMs float64
	RunMs       float64
	SimStepMs   float64
	Err         error // nil when the job passed the gate
}

type svcClient struct {
	base string
	hc   *http.Client
}

const (
	pollEvery  = 3 * time.Millisecond
	maxRetries = 1000
)

func (c *svcClient) get(path string) ([]byte, int, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// scrape fetches GET /metrics and returns the sample values by series name.
func (c *svcClient) scrape() (map[string]float64, float64, error) {
	t := time.Now()
	b, code, err := c.get("/metrics")
	d := ms(time.Since(t))
	if err != nil {
		return nil, d, err
	}
	if code != http.StatusOK {
		return nil, d, fmt.Errorf("GET /metrics: status %d", code)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, d, nil
}

// run submits one job, retrying on backpressure, polls it to a terminal
// state and applies the gate: the job must be completed with all its steps
// and finite diagnostics — the state string alone is not trusted.
func (c *svcClient) run(j svcJob, tr *tracer, parent int64) (res jobResult) {
	res = jobResult{Class: j.Class}
	body, err := json.Marshal(j.Spec)
	if err != nil {
		res.Err = err
		return res
	}
	t0 := time.Now()
	id := tr.reserve()
	defer func() { tr.finish(id, parent, "client.job."+j.Class, -1, t0, time.Now()) }()
	var st server.JobStatus
	for {
		ts := time.Now()
		resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			res.Err = err
			return res
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		te := time.Now()
		res.SubmitMs += ms(te.Sub(ts))
		tr.add(id, "server.submit", -1, ts, te)
		if err != nil {
			res.Err = err
			return res
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			if res.Retries++; res.Retries > maxRetries {
				res.Err = fmt.Errorf("submit: still refused after %d retries", maxRetries)
				return res
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			res.Err = fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
			return res
		}
		if err := json.Unmarshal(b, &st); err != nil {
			res.Err = fmt.Errorf("submit: %w", err)
			return res
		}
		break
	}
	for !st.State.Terminal() {
		time.Sleep(pollEvery)
		ts := time.Now()
		b, code, err := c.get("/jobs/" + st.ID)
		te := time.Now()
		res.PollMs = append(res.PollMs, ms(te.Sub(ts)))
		tr.add(id, "server.poll", -1, ts, te)
		if err != nil {
			res.Err = err
			return res
		}
		if code != http.StatusOK {
			res.Err = fmt.Errorf("poll %s: status %d", st.ID, code)
			return res
		}
		if err := json.Unmarshal(b, &st); err != nil {
			res.Err = fmt.Errorf("poll %s: %w", st.ID, err)
			return res
		}
	}
	res.LatencyMs = ms(time.Since(t0))
	sub, err1 := time.Parse(time.RFC3339Nano, st.SubmittedAt)
	start, err2 := time.Parse(time.RFC3339Nano, st.StartedAt)
	fin, err3 := time.Parse(time.RFC3339Nano, st.FinishedAt)
	if err := errors.Join(err1, err2, err3); err != nil {
		res.Err = fmt.Errorf("job %s timestamps: %w", st.ID, err)
		return res
	}
	res.Steps, res.Dt2 = st.StepsDone, st.Spec.Dt2
	res.QueueWaitMs = ms(start.Sub(sub))
	res.RunMs = ms(fin.Sub(start))
	if st.Comm != nil && st.StepsDone > 0 {
		res.SimStepMs = st.Comm.SimTimeS * 1e3 / float64(st.StepsDone)
	}
	switch {
	case st.State != server.JCompleted:
		res.Err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	case st.StepsDone != st.StepsWant:
		res.Err = fmt.Errorf("job %s completed %d of %d steps", st.ID, st.StepsDone, st.StepsWant)
	case st.Diagnostics["all_finite"] != 1:
		res.Err = fmt.Errorf("job %s completed with non-finite state", st.ID)
	}
	return res
}

// svc is one in-process job service on a loopback listener, persisting
// under its own directory as `cadyserved -dir` does.
type svc struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	dir    string
	client *svcClient
}

// startService boots a service with 2 workers and a queue of 2 (the CI
// service bench's `loadgen -workers 2 -queue 2`) under dir and waits until
// /healthz answers. The service mix's two closed-loop clients never hold more
// than 2 jobs, so the queue never fills: admission is never refused and no
// job waits behind another.
func startService(dir string) (*svc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Workers: 2, QueueCap: 2, Dir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	s := &svc{srv: srv, hs: &http.Server{Handler: srv}, served: make(chan error, 1), dir: dir,
		client: &svcClient{base: "http://" + ln.Addr().String(),
			hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}, Timeout: time.Minute}}}
	go func() { s.served <- s.hs.Serve(ln) }()
	for i := 0; ; i++ {
		if _, code, err := s.client.get("/healthz"); err == nil && code == http.StatusOK {
			return s, nil
		}
		if i == 1000 {
			s.stop()
			return nil, fmt.Errorf("service did not become ready")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the HTTP server and the job service down, waits for both and
// removes the service directory.
func (s *svc) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Shutdown(ctx)
	s.client.hc.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// svcRun is the outcome of one service_mix run.
type svcRun struct {
	SetupS    []float64
	Jobs      []jobResult
	WallS     float64
	ScrapeMs  []float64
	Snapshots float64 // checkpoints written during the timed phase
	ColdPlans int     // plan-cache entries written during the timed phase
	AutoJobs  int
	CkptBytes []float64
	Err       error // the service could not be booted or observed
}

// runServiceMix boots the service setupReps times, each boot timed up to and
// including one warm-up job per class, after a garbage collection. The middle
// boot is kept for the timed phase; half of the others come before it and
// half after, so setup_s samples the host over the whole run. The timed phase
// runs two closed-loop clients for budget; client 0 scrapes /metrics after
// every block of the mix.
func runServiceMix(seed int64, setupReps int, budget time.Duration, workDir string, tr *tracer) (out svcRun) {
	root := tr.reserve()
	t0 := time.Now()
	defer func() { tr.finish(root, 0, "service.run", -1, t0, time.Now()) }()
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		ts := time.Now()
		s, err := startService(filepath.Join(workDir, fmt.Sprintf("svc-%d-%d", os.Getpid(), rep)))
		if err != nil {
			out.Err = err
			return out
		}
		for _, j := range warmJobs(seed) {
			if r := s.client.run(j, nil, 0); r.Err != nil {
				err = fmt.Errorf("warm-up %s job: %w", j.Class, r.Err)
				break
			}
		}
		te := time.Now()
		out.SetupS = append(out.SetupS, te.Sub(ts).Seconds())
		tr.add(root, "service.setup", -1, ts, te)
		if err == nil && rep == setupReps/2 {
			err = runClients(s, seed, budget, tr, root, &out)
		}
		s.stop()
		if err != nil {
			out.Err = err
			return out
		}
	}
	return out
}

// runClients is the timed phase of runServiceMix on the booted service s.
func runClients(s *svc, seed int64, budget time.Duration, tr *tracer, root int64, out *svcRun) error {
	before, _, err := s.client.scrape()
	if err != nil {
		return err
	}
	plansBefore := countFiles(filepath.Join(s.dir, "plans"))
	start := time.Now()
	deadline := start.Add(budget)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for cl := 0; cl < 2; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			jobs := genJobs(seed, cl, 4096)
			for i := 0; time.Now().Before(deadline) && i < len(jobs); i++ {
				r := s.client.run(jobs[i], tr, root)
				var scr float64 = -1
				if cl == 0 && i%len(svcBlock()) == len(svcBlock())-1 {
					ts := time.Now()
					if _, d, err := s.client.scrape(); err == nil {
						scr = d
					}
					tr.add(root, "server.metrics_scrape", -1, ts, time.Now())
				}
				mu.Lock()
				out.Jobs = append(out.Jobs, r)
				if scr >= 0 {
					out.ScrapeMs = append(out.ScrapeMs, scr)
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	out.WallS = time.Since(start).Seconds()
	after, d, err := s.client.scrape()
	if err != nil {
		return err
	}
	out.ScrapeMs = append(out.ScrapeMs, d)
	out.Snapshots = after["cady_checkpoints_total"] - before["cady_checkpoints_total"]
	out.ColdPlans = countFiles(filepath.Join(s.dir, "plans")) - plansBefore
	for _, j := range out.Jobs {
		if j.Class == "auto" {
			out.AutoJobs++
		}
	}
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".ck") {
			if fi, err := d.Info(); err == nil {
				out.CkptBytes = append(out.CkptBytes, float64(fi.Size()))
			}
		}
		return nil
	})
	return nil
}

// countFiles counts the regular files directly under dir (0 if absent).
func countFiles(dir string) int {
	es, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range es {
		if e.Type().IsRegular() && !strings.HasSuffix(e.Name(), ".tmp") {
			n++
		}
	}
	return n
}

// probeJobs is how many jobs of each kind probeServer sends.
const probeJobs = 3

// probeServer sends probeJobs one-step jobs of one dycore configuration, with
// a checkpoint every step, and then probeJobs one-step auto-layout jobs at the
// configuration's (mesh, procs) key through a fresh service, one at a time
// with a /metrics scrape after each. So the dycore workloads report the
// server, checkpoint and plan-cache layers for their own job shape; the first
// auto job plans cold and the others find its plan in the service's cache.
func probeServer(c dyConfig, seed int64, workDir string, tr *tracer) (svcRun, error) {
	s, err := startService(filepath.Join(workDir, fmt.Sprintf("probe-%d", os.Getpid())))
	if err != nil {
		return svcRun{}, err
	}
	defer s.stop()
	alg := "yz"
	if c.Alg == dycore.AlgCommAvoid {
		alg = "ca"
	}
	var out svcRun
	before, _, err := s.client.scrape()
	if err != nil {
		return out, err
	}
	for i := 0; i < 2*probeJobs; i++ {
		sp := server.JobSpec{Alg: alg, PA: c.PA, PB: c.PB, Nx: c.Nx, Ny: c.Ny, Nz: c.Nz, M: c.M,
			Dt1: c.Dt1, Dt2: c.Dt2, Steps: 1, CheckpointEvery: 1,
			PerturbAmp: perturbAmp, PerturbSeed: seed + int64(i)}
		class := "probe." + alg
		if i >= probeJobs {
			sp.Alg, sp.PA, sp.PB, sp.CheckpointEvery = "", 0, 0, 0
			sp.Layout, sp.Procs = "auto", c.procs()
			class = "probe.auto"
			out.AutoJobs++
		}
		r := s.client.run(svcJob{Class: class, Spec: sp}, tr, 0)
		if r.Err != nil {
			return out, r.Err
		}
		out.Jobs = append(out.Jobs, r)
		_, d, err := s.client.scrape()
		if err != nil {
			return out, err
		}
		out.ScrapeMs = append(out.ScrapeMs, d)
	}
	after, _, err := s.client.scrape()
	if err != nil {
		return out, err
	}
	out.Snapshots = after["cady_checkpoints_total"] - before["cady_checkpoints_total"]
	out.ColdPlans = countFiles(filepath.Join(s.dir, "plans"))
	return out, nil
}
