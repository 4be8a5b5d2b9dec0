package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks
// the output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly on the smoke-test inputs, timed
// and traced, and checks that the correctness gate passes, that exactly
// the metrics BENCHMARK.json names are reported with their units, and
// that the traced run records and writes out its spans.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.Name + "/timed"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				cfg := config{workload: w.Name, seed: 7, seconds: 0.4, trace: traced, small: true,
					root: "..", outDir: out, tmpRoot: filepath.Join(out, "tmp")}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := map[string]string{}
				if traced {
					for _, m := range bf.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bf.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s not in BENCHMARK.json", name)
					}
				}
				if !traced {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
					return
				}
				if res.Metrics["trace.spans"].Value < 1 {
					t.Errorf("traced run recorded no spans")
				}
				dump := filepath.Join(out, "spans-"+w.Name+"-seed7.jsonl")
				if fi, err := os.Stat(dump); err != nil || fi.Size() == 0 {
					t.Errorf("span dump %s missing or empty: %v", dump, err)
				}
			})
		}
	}
}

// TestHitsManyClients runs serve_hits with more clients than the catalog
// has pairs of entries, as on a machine with many CPUs: the disk tier
// must still answer every disk-phase request.
func TestHitsManyClients(t *testing.T) {
	out := t.TempDir()
	cfg := config{workload: "serve_hits", seed: 7, seconds: 0.4, small: true, clients: 12,
		root: "..", outDir: out, tmpRoot: filepath.Join(out, "tmp")}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}
