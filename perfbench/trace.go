package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded at a layer boundary on the benchmark
// side: the calls into the program are wrapped, the program itself is not
// instrumented. Parent is the ID of the enclosing span (0 = a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them once the benchmark ends.
// A nil *tracer records nothing, so untraced runs pay only a nil check.
type tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(parent int64, name string, rank int, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Run: t.run, Name: name, Rank: rank,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return t.next
}

// reserve allocates an ID for a span whose children are recorded before it
// ends; finish records it under that ID.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) finish(id, parent int64, name string, rank int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Rank: rank,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// selfTimes returns, per span name, the summed self time in ms: each span's
// duration minus the part of its interval covered by the union of its
// children.
func (t *tracer) selfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		covered := unionLen(kids[s.ID], s.Start, s.End)
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// counts returns the number of spans per name.
func (t *tracer) counts() map[string]int {
	out := make(map[string]int)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		out[s.Name]++
	}
	return out
}

// unionLen is the length of the union of intervals clipped to [lo, hi].
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(a, b int) bool { return s[a][0] < s[b][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range s {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if curHi < 0 || a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}

// traceDump is the file written at the end of a traced run.
type traceDump struct {
	Host     hostInfo           `json:"host"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfMs   map[string]float64 `json:"self_ms"`
	Counts   map[string]int     `json:"span_counts"`
	// Computed holds kernel operation counts and bytes moved derived from
	// array sizes (not measured by hardware counters).
	Computed map[string]float64 `json:"computed"`
	Spans    []span             `json:"spans"`
}

// write dumps the spans under dir as <workload>-seed<n>.json.
func (t *tracer) write(dir string, d traceDump) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	d.SelfMs = t.selfTimes()
	d.Counts = t.counts()
	t.mu.Lock()
	d.Spans = t.spans
	b, err := json.Marshal(d)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, d.Workload+"-seed"+itoa(d.Seed)+".json")
	return path, os.WriteFile(path, b, 0o644)
}
