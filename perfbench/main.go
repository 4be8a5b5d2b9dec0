// Command perfbench is the repository's benchmark. It drives the
// derivation engines and the derivation server from outside, through the
// layers' exported functions and in-process serve.Server instances on
// loopback HTTP, and prints one JSON result line. See README.md.
//
//	perfbench --workload derive|serve_hits|serve_cold --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

var bgctx = context.Background()

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool   // smoke-test input sizes
	clients  int    // concurrent serve_hits clients; 0 means one per CPU
	root     string // checkout root
	outDir   string // span dumps and, under tmp/, the run's temporary directories
	tmpRoot  string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// path is one kind of operation a workload times (a corpus pass, a
// memory-tier hit, a fleet request).
type path struct {
	name string
	lat  samples
}

// outcome is what one workload run measured.
type outcome struct {
	setups []time.Duration
	paths  []path
	// p50ms is the workload's median operation latency in ms: the
	// estimated corpus pass time for derive, the geometric mean of the
	// per-path medians for the serve workloads.
	p50ms      float64
	rss        rssPeaks // peak resident memory per kind of operation
	ops        int64    // operations behind alloc_kb_per_op
	attempted  int64    // operations that could fail (derivations, requests)
	failed     int64
	failures   []string
	allocBytes uint64
	detail     map[string]metric  // the workload's own named metrics
	layers     map[string]metric  // per-layer metrics (traced runs)
	counts     map[string]float64 // exact-repeat counts among them
}

func newOutcome() *outcome {
	return &outcome{rss: rssPeaks{}, detail: map[string]metric{}, layers: map[string]metric{}, counts: map[string]float64{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// count records a repeatable count: a per-layer metric that the same
// code reproduces exactly (heap allocation counts to within a few
// allocations of the runtime's own), so later changes may rest count
// claims on it.
func (o *outcome) count(name string, v float64) {
	o.layers[name] = metric{v, "count"}
	o.counts[name] = v
}

func (o *outcome) layer(name string, v float64, unit string) { o.layers[name] = metric{v, unit} }

// endToEnd is the gated metric set every workload reports.
func (o *outcome) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":         {samples(o.setups).median().Seconds(), "s"},
		"peak_rss_mb":     {o.rss.peak(), "MB"},
		"p50_ms":          {o.p50ms, "ms"},
		"alloc_kb_per_op": {float64(o.allocBytes) / 1024 / float64(o.ops), "KB"},
	}
}

// env is shared by every workload of one run.
type env struct {
	cfg     config
	rng     *rand.Rand
	digests map[string]string
	dirs    *tempDirs
}

// check compares a result digest with the recorded one.
func (e *env) check(o *outcome, name, got string) bool {
	want, ok := e.digests[name]
	switch {
	case !ok:
		o.fail("%s: no recorded digest", name)
		return false
	case got != want:
		o.fail("%s: curve digest %.12s, recorded %.12s", name, got, want)
		return false
	}
	return true
}

type workloadFunc func(e *env, seconds float64, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"derive":     runDerive,
	"serve_hits": runHits,
	"serve_cold": runCold,
}

// traceShortSeconds is how long a traced run spends on each serve
// workload other than the selected one, so that every traced run reports
// every per-layer metric.
const traceShortSeconds = 4

func main() {
	var cfg config
	var traceFlag int
	var recordPath string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: derive, serve_hits or serve_cold")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.StringVar(&recordPath, "record", "", "derive every input and write the digest table to this file, then exit")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.outDir = filepath.Join(cfg.root, ".bench_build")
	cfg.tmpRoot = filepath.Join(cfg.outDir, "tmp")

	if recordPath != "" {
		if err := record(recordPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report is the line printed before the result: provenance, the
// workload's own named metrics, sample counts and exact-repeat counts.
type report struct {
	Provenance  provenance         `json:"provenance"`
	Detail      map[string]metric  `json:"detail"`
	Samples     map[string]int     `json:"samples"`
	ExactCounts map[string]float64 `json:"exact_counts,omitempty"`
	Failures    []string           `json:"failures,omitempty"`
}

func run(cfg config) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want derive, serve_hits or serve_cold)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds %v, want > 0", cfg.seconds)
	}
	digests, err := recorded()
	if err != nil {
		return nil, err
	}
	dirs, err := newTempDirs(cfg.tmpRoot)
	if err != nil {
		return nil, err
	}
	defer dirs.cleanup()
	e := &env{cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed)), digests: digests, dirs: dirs}

	// sel is the selected workload's outcome: its timed run, or in a
	// traced run its traced half.
	var outs []*outcome
	var sel *outcome
	res := &result{}
	if !cfg.trace {
		o, err := fn(e, cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		outs, sel = []*outcome{o}, o
		res.Metrics = o.endToEnd()
	} else {
		layers, traced, err := traceRun(e, fn)
		if err != nil {
			return nil, err
		}
		outs, sel = traced, traced[0]
		res.Metrics = layers
	}
	for _, o := range outs {
		res.Attempted += o.attempted
		res.Failed += o.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	sel.detail["setup_s"] = metric{samples(sel.setups).median().Seconds(), "s"}
	sel.detail["error_rate"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "fraction"}
	sel.detail["peak_rss_mb"] = metric{sel.rss.peak(), "MB"}
	rep := report{Provenance: newProvenance(cfg), Detail: sel.detail, Samples: map[string]int{}, ExactCounts: map[string]float64{}}
	for _, o := range outs {
		for k, v := range o.counts {
			rep.ExactCounts[k] = v
		}
		rep.Failures = append(rep.Failures, o.failures...)
	}
	for _, p := range sel.paths {
		rep.Samples[p.name] = len(p.lat)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return res, nil
}

// traceRun runs the derive layer probes, measures the selected workload
// untraced and traced for half the run each (their difference is the
// tracing overhead), and runs the other serve workloads traced for a
// short while, so that every traced run reports every per-layer metric.
// The first returned outcome is the selected workload's traced run.
func traceRun(e *env, fn workloadFunc) (map[string]metric, []*outcome, error) {
	// The derive probes run first, before any server goroutine exists,
	// so that their process-wide allocation counts see only the layer
	// under probe.
	probes, err := deriveLayers(e)
	if err != nil {
		return nil, nil, err
	}
	half := e.cfg.seconds / 2
	base, err := fn(e, half, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	traced, err := fn(e, half, tr)
	if err != nil {
		return nil, nil, err
	}
	outs := []*outcome{traced, base}
	tracers := []*tracer{tr}
	short := min(traceShortSeconds, e.cfg.seconds)
	for _, name := range []string{"serve_hits", "serve_cold"} {
		if name == e.cfg.workload {
			continue
		}
		str := newTracer()
		o, err := workloads[name](e, short, str)
		if err != nil {
			return nil, nil, err
		}
		tracers = append(tracers, str)
		outs = append(outs, o)
	}
	outs = append(outs, probes)

	// The selected workload's own traced run, the longest, wins.
	layers := map[string]metric{}
	for _, o := range append(outs[1:], traced) {
		for k, v := range o.layers {
			layers[k] = v
		}
	}
	layers["trace.overhead_frac"] = metric{traced.p50ms/base.p50ms - 1, "fraction"}
	spans := 0
	for _, t := range tracers {
		spans += t.len()
	}
	layers["trace.spans"] = metric{float64(spans), "count"}
	dump := filepath.Join(e.cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", e.cfg.workload, e.cfg.seed))
	if err := writeSpans(dump, tracers...); err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}
	return layers, outs, nil
}
