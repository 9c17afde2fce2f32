package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchmarkShort runs every workload and its traced pass at smoke size,
// the first traced pass with the layer probes: it proves on every
// `go test ./...` that the harness still compiles against each layer's public
// functions and that every digest and body check passes.
func TestBenchmarkShort(t *testing.T) {
	out := t.TempDir()
	for i, def := range workloads {
		for trace := 0; trace <= 1; trace++ {
			o := options{workload: def.name, seed: 2022, trace: trace, probes: i == 0, short: true, out: out}
			r, err := runOne(o)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", def.name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v, %d of %d ops failed", def.name, trace, r.Correct, r.Failed, r.Attempted)
			}
			if trace == 1 {
				for _, d := range perLayer {
					if _, ok := r.Metrics[d.Name]; !ok && (o.probes || tracedOnly[d.Name]) && !unmeasurable(d.Name) {
						t.Errorf("%s: traced pass did not report %s", def.name, d.Name)
					}
				}
				if _, err := os.Stat(filepath.Join(out, "trace-"+def.name+".json")); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// TestManifest keeps BENCHMARK.json equal to the tables the harness uses, and
// the tables inside the limits the file's format sets.
func TestManifest(t *testing.T) {
	var buf bytes.Buffer
	if err := printManifest(&buf); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), onDisk) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -manifest`")
	}
	seen := map[string]bool{}
	for _, d := range workloads {
		if len(d.why) > 200 || seen[d.name] {
			t.Errorf("workload %s: why has %d characters, or the name repeats", d.name, len(d.why))
		}
		seen[d.name] = true
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if len(d.Name) > 64 || len(d.Unit) > 16 || seen[d.Name] || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("metric %+v breaks a limit of BENCHMARK.json, or its name repeats", d)
		}
		seen[d.Name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(perLayer))
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestDigestsPinned(t *testing.T) {
	for k, v := range genDigests {
		if len(v) != 64 {
			t.Errorf("genDigests[%s] = %q", k, v)
		}
	}
	for k, v := range zooDigests {
		if len(v) != 64 {
			t.Errorf("zooDigests[%v] = %q", k, v)
		}
	}
}
