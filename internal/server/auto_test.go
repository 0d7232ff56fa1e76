package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cadycore/internal/checkpoint"
	"cadycore/internal/tune"
)

func autoSpec(steps int) JobSpec {
	return JobSpec{
		Layout: "auto", Procs: 4,
		Nx: 32, Ny: 16, Nz: 4, M: 2, Steps: steps,
	}
}

func TestAutoLayoutJobRunsAndSurfacesPlan(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 8, Dir: dir})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJSON(t, ts, "/jobs", autoSpec(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	final := waitState(t, s, st.ID, JCompleted)

	if final.Plan == nil {
		t.Fatal("completed auto job has no plan in its status")
	}
	p := final.Plan
	if got := p.PA * p.PB; got != 4 {
		t.Errorf("planned grid %dx%d uses %d ranks, want 4", p.PA, p.PB, got)
	}
	if p.Scheme != tune.SchemeCA && p.Scheme != tune.SchemeYZ && p.Scheme != tune.SchemeXY {
		t.Errorf("unknown planned scheme %q", p.Scheme)
	}
	if p.ProfileHash == "" || p.PredictedStep <= 0 {
		t.Errorf("plan missing evidence: %+v", p)
	}
	if final.StepsDone != 2 {
		t.Errorf("steps done = %d, want 2", final.StepsDone)
	}

	// The plan must also reach the status endpoint as JSON and the
	// persisted metadata (so resumes reuse the decomposition).
	hresp, err := http.Get(ts.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	hst := decodeStatus(t, hresp)
	if hst.Plan == nil || hst.Plan.Scheme != p.Scheme {
		t.Errorf("HTTP status lost the plan: %+v", hst.Plan)
	}
	metaB, err := os.ReadFile(filepath.Join(dir, st.ID, "meta.json"))
	if err != nil {
		t.Fatalf("reading persisted meta: %v", err)
	}
	var meta struct {
		Plan *tune.Plan `json:"plan"`
	}
	if err := json.Unmarshal(metaB, &meta); err != nil || meta.Plan == nil {
		t.Errorf("persisted meta has no plan: %s", metaB)
	}
}

func TestAutoLayoutSpecValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for name, spec := range map[string]JobSpec{
		"auto with alg":         {Layout: "auto", Alg: "ca"},
		"auto with grid":        {Layout: "auto", PA: 2, PB: 2},
		"unknown layout":        {Layout: "dynamic"},
		"procs without auto":    {Alg: "yz", PA: 2, PB: 2, Procs: 4},
		"procs beyond the cap":  {Layout: "auto", Procs: 4096},
		"auto on a figures job": {Kind: "figures", Layout: "auto"},
	} {
		resp := postJSON(t, ts, "/jobs", spec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestAutoLayoutInfeasibleBudgetFailsAfterPlanning(t *testing.T) {
	// 97 is prime and exceeds every per-axis cap of the default mesh, so no
	// factorization is feasible: submission is accepted (the budget alone
	// is not invalid) but planning must fail the job with a clear error.
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	spec := JobSpec{Layout: "auto", Procs: 97, Steps: 1}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final := waitState(t, s, j.ID, JFailed)
	if !strings.Contains(final.Error, "autotune") {
		t.Errorf("error %q does not mention autotuning", final.Error)
	}
	if final.Resumable {
		t.Error("an unplannable job must not be resumable")
	}
}

// TestRecoveredV3SpectralPlanResumesOnStencil: a job directory written
// before the plan schema dropped its spectral-smoothing switch (a version-3
// plan carrying "spectral": true in meta.json) still recovers, resumes from
// its checkpoint in the recorded layout and completes on the stencil path —
// bitwise equal to an uninterrupted Y-Z run. On-disk recovery stays lenient
// about fields this build does not know; only live submissions are strict.
func TestRecoveredV3SpectralPlanResumesOnStencil(t *testing.T) {
	dir := t.TempDir()
	spec := autoSpec(4)
	spec.Nx, spec.Ny, spec.Nz = 48, 24, 8
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	// The layout the old plan recorded, as an explicit spec for the
	// reference runs.
	explicit := smallSpec(4)
	explicit.Dt1, explicit.Dt2 = spec.Dt1, spec.Dt2
	half := explicit
	half.Steps = 2

	id := "j-000001"
	jdir := filepath.Join(dir, id)
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	specB, _ := json.Marshal(spec)
	var specM map[string]any
	json.Unmarshal(specB, &specM)
	specM["retired_field"] = true
	specB, _ = json.Marshal(specM)
	metaB := []byte(`{"state": "running", "steps_done": 2, "checkpoint_step": 2, "attempts": 1,
		"plan": {"version": 3, "mesh": [48, 24, 8], "procs": 4, "scheme": "yz", "pa": 2, "pb": 2,
		         "m": 2, "workers": 1, "spectral": true, "halo_y": 2, "halo_z": 0,
		         "predicted_step_s": 0.001, "refined": true, "profile_hash": "v3"}}`)
	for name, b := range map[string][]byte{"spec.json": specB, "meta.json": metaB} {
		//cadyvet:volatile forges the on-disk state an older build left behind; durability is not under test
		if err := os.WriteFile(filepath.Join(jdir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkpoint.WriteAtomic(filepath.Join(jdir, "snap.ck"), refFinal(half)); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: dir})
	j, ok := s.Get(id)
	if !ok {
		t.Fatalf("job %s with a version-3 plan not recovered", id)
	}
	if st := j.Status(); st.State != JInterrupted || !st.Resumable || st.Plan == nil ||
		st.Plan.Scheme != tune.SchemeYZ || st.Plan.PA != 2 || st.Plan.PB != 2 {
		t.Fatalf("recovered job: state %s resumable %v plan %+v", st.State, st.Resumable, st.Plan)
	}
	if _, err := s.Resume(id); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	fin := waitState(t, s, id, JCompleted)
	if fin.StepsDone != 4 || fin.Diagnostics["all_finite"] != 1 {
		t.Fatalf("resumed job: %d steps, all_finite %v", fin.StepsDone, fin.Diagnostics["all_finite"])
	}
	if !durableFinal(t, dir, id).Equal(refFinal(explicit)) {
		t.Fatal("resumed v3-plan job differs from the uninterrupted stencil run")
	}
}
