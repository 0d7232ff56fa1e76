package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"cadycore/internal/checkpoint"
	"cadycore/internal/dycore"
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/state"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesMetrics checks that BENCHMARK.json declares
// exactly the workloads and metrics this program emits, with valid names,
// units and bounds.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("invalid name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var wl []string
	for _, w := range bf.Workloads {
		checkName(w.Name)
		wl = append(wl, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(wl) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program implements %d", len(wl), len(workloads))
	}
	var e2e, pl []metricDef
	for _, m := range bf.EndToEnd {
		checkName(m.Name)
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must lie in (0, 0.25]", m.Name)
		}
	}
	for _, m := range bf.PerLayer {
		checkName(m.Name)
		pl = append(pl, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: invalid unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better must be lower or higher", d.Name)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the program's list:\n%v\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(pl, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's list:\n%v\n%v", pl, perLayer)
	}
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
}

// TestEveryMetricEmitted runs every workload briefly, untraced and traced,
// and checks each result line carries exactly the declared metrics with
// their units and a correct verdict.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			if err := run(name, 7, 0.5, traced, &out); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line: %v", name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or with unit %q", name, traced, d.Name, m.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// globalInit gathers the seeded initial state of one Y-Z decomposition of g.
func globalInit(g *grid.Grid, seed int64, py, pz int) *checkpoint.Global {
	var sts []*state.State
	for cz := 0; cz < pz; cz++ {
		for cy := 0; cy < py; cy++ {
			st := state.New(field.Block{Nx: g.Nx, Ny: g.Ny, Nz: g.Nz, I0: 0, I1: g.Nx,
				J0: cy * g.Ny / py, J1: (cy + 1) * g.Ny / py, K0: cz * g.Nz / pz, K1: (cz + 1) * g.Nz / pz,
				Hx: 3, Hy: 2, Hz: 1})
			seededInit(seed)(g, st)
			sts = append(sts, st)
		}
	}
	return checkpoint.Gather(g, sts)
}

// TestGeneratorsDeterministic checks that a seed fixes the inputs: the
// initial state is the same for every decomposition and every call, a
// different seed changes it, and the service job sequence repeats exactly.
func TestGeneratorsDeterministic(t *testing.T) {
	g := grid.New(24, 12, 4)
	a := globalInit(g, 5, 1, 1)
	if !a.Equal(globalInit(g, 5, 1, 1)) {
		t.Error("the same seed gave two different initial states")
	}
	if !a.Equal(globalInit(g, 5, 2, 2)) {
		t.Error("the initial state depends on the decomposition")
	}
	if a.Equal(globalInit(g, 6, 1, 1)) {
		t.Error("a different seed gave the same initial state")
	}
	if !reflect.DeepEqual(genJobs(5, 0, 200), genJobs(5, 0, 200)) {
		t.Error("the same seed gave two different job sequences")
	}
	if reflect.DeepEqual(genJobs(5, 0, 200), genJobs(6, 0, 200)) {
		t.Error("a different seed gave the same job sequence")
	}
	classes := map[string]int{}
	for _, j := range genJobs(5, 1, 200) {
		classes[j.Class]++
		if err := j.Spec.Normalize(); err != nil {
			t.Errorf("generated %s job is invalid: %v", j.Class, err)
		}
	}
	for _, c := range []string{"yz", "ca", "auto"} {
		if classes[c] == 0 {
			t.Errorf("no %s job in 200 draws", c)
		}
	}
}

// TestGateFailsNaNInitialState poisons one point of the initial state and
// checks the correctness gate counts the run as failed.
func TestGateFailsNaNInitialState(t *testing.T) {
	c := dyConfig{Alg: dycore.AlgCommAvoid, Nx: 24, Ny: 12, Nz: 4, PA: 2, PB: 2, M: 1, Dt1: 40, Dt2: 240}
	poisoned := func(g *grid.Grid, st *state.State) {
		seededInit(1)(g, st)
		b := st.B
		st.Phi.Set(b.I0, b.J0, b.K0, math.NaN())
	}
	var o outcome
	r := runDycore(c, poisoned, 1, time.Millisecond, warmSteps+simWindow, nil)
	if err := checkRun(&o, "", r); err != nil {
		t.Fatal(err)
	}
	if len(o.Failures) == 0 {
		t.Fatal("the gate passed a run from a NaN-poisoned initial state")
	}

	var clean outcome
	if err := checkRun(&clean, "", runDycore(c, seededInit(1), 1, time.Millisecond, warmSteps+simWindow, nil)); err != nil {
		t.Fatal(err)
	}
	if len(clean.Failures) != 0 {
		t.Fatalf("the gate failed a clean run: %v", clean.Failures)
	}
}
