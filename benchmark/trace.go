package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded by the harness from outside
// the layer. Times are nanoseconds since the tracer started. Parent is the
// index of the enclosing span in the trace, -1 for a root; Op is the index of
// the workload op (rack-hour, sweep point, request) the span belongs to, -1
// for spans outside any op.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so the untraced blocks run the very same code with tracing off.
// It is used by one goroutine at a time: concurrent clients each get a Fork.
type Tracer struct {
	t0    time.Time
	spans []Span
	stack []int
}

func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Fork returns a tracer on the same clock for another goroutine; its spans
// are merged back with Merge.
func (t *Tracer) Fork() *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{t0: t.t0}
}

// Merge appends a fork's spans, re-basing their parent links.
func (t *Tracer) Merge(f *Tracer) {
	if t == nil || f == nil {
		return
	}
	base := len(t.spans)
	for _, s := range f.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// Begin opens a span under the innermost open span and returns its index.
func (t *Tracer) Begin(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, Span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// End closes the innermost open span, which must be id.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic("benchmark: trace spans closed out of order")
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// Rename relabels a span the harness could only classify once it had ended.
func (t *Tracer) Rename(id int, name string, op int) {
	if t != nil {
		t.spans[id].Name, t.spans[id].Op = name, op
	}
}

// Do runs fn inside a span.
func (t *Tracer) Do(name string, op int, fn func() error) error {
	id := t.Begin(name, op)
	err := fn()
	t.End(id)
	return err
}

func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// SelfTimes returns each span's self time: its duration minus the part of
// that interval its direct children cover (overlapping children, which
// concurrent clients produce, are counted once).
func SelfTimes(spans []Span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		k := kids[i]
		sort.Slice(k, func(a, b int) bool { return spans[k[a]].Start < spans[k[b]].Start })
		covered, edge := int64(0), s.Start
		for _, c := range k {
			lo, hi := spans[c].Start, spans[c].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// SelfByName sums self time per span name, in seconds.
func SelfByName(spans []Span) map[string]float64 {
	out := map[string]float64{}
	for i, d := range SelfTimes(spans) {
		out[spans[i].Name] += float64(d) / 1e9
	}
	return out
}

// WriteTrace stores the spans as benchmark/out/trace-<workload>.json.
func WriteTrace(outDir, workload string, spans []Span) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []Span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
