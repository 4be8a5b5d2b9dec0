package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bound"
	"repro/internal/fusion"
	"repro/internal/mapping"
	"repro/internal/multilevel"
	"repro/internal/pareto"
	"repro/internal/shard"
	"repro/internal/snowcat"
	"repro/internal/store"
	"repro/internal/workload"
)

// deriveSetupReps is how many times the derive set-up (building and
// validating the corpus specs) is timed before each corpus item; setup_s
// is the median over the run.
const deriveSetupReps = 5

// setupCorpus builds the corpus and resolves everything a caller needs
// before deriving: validation, the enumeration space and the cache
// identity of every spec.
func setupCorpus(small bool) ([]input, error) {
	corpus := deriveCorpus(small)
	for _, in := range corpus {
		if err := in.spec.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		if _, err := in.spec.Space(); err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		if _, _, err := store.Identity(in.spec); err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
	}
	return corpus, nil
}

// runDerive is the derive workload: whole corpus passes through
// workload.Spec.Run, in a seeded order per pass, with Workers = nproc,
// until the time is up. One operation is one pass. Its time is estimated
// as the sum over corpus items of each item's median run time: a median
// per item discounts the passes a transient load on the machine slowed,
// and the sum weighs each item by its cost, as a pass does. The traced
// run records a span per Run.
func runDerive(e *env, seconds float64, tr *tracer) (*outcome, error) {
	o := newOutcome()
	corpus, err := setupCorpus(e.cfg.small)
	if err != nil {
		return nil, err
	}
	// The set-up takes a fraction of a millisecond, which the machine's
	// state of the moment can double. It is therefore timed before every
	// corpus item, so that setup_s samples the machine throughout the
	// run, as the passes do. Its allocations are left out of
	// alloc_kb_per_op.
	var setupBytes uint64
	timeSetups := func() error {
		var err error
		_, b := allocs(func() {
			for i := 0; i < deriveSetupReps && err == nil; i++ {
				start := time.Now()
				_, err = setupCorpus(e.cfg.small)
				o.setups = append(o.setups, time.Since(start))
			}
		})
		setupBytes += b
		return err
	}
	exec := workload.Exec{Workers: runtime.NumCPU()}
	items := map[string]samples{}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	begin := time.Now()
	for time.Since(begin).Seconds() < seconds {
		for _, in := range shuffled(corpus, e.rng) {
			if err := timeSetups(); err != nil {
				return nil, err
			}
			op := tr.newID()
			var r *workload.Result
			var start, end time.Time
			o.rss.around(in.name, func() {
				start = time.Now()
				r, err = in.spec.Run(bgctx, exec)
				end = time.Now()
			})
			tr.record(span{id: op, op: op, name: "workload.run/" + string(in.spec.Kind), start: start, end: end})
			o.attempted++
			if err != nil {
				o.fail("%s: %v", in.name, err)
				continue
			}
			if e.check(o, in.name, resultDigest(r.Curve, r.Segments)) {
				items[in.name] = append(items[in.name], end.Sub(start))
			}
		}
		o.ops++
	}
	runtime.ReadMemStats(&ms1)
	o.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc - setupBytes
	var pass time.Duration
	for _, in := range corpus {
		o.paths = append(o.paths, path{in.name, items[in.name]})
		pass += items[in.name].median()
	}
	o.p50ms = ms(pass)
	o.detail["derive_s"] = metric{pass.Seconds(), "s"}
	o.detail["derive_alloc_mb"] = metric{float64(o.allocBytes) / float64(o.ops) / (1 << 20), "MB"}
	return o, nil
}

// allocs measures the heap allocations fn makes.
func allocs(fn func()) (count, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// deriveLayers is the derive workload's per-layer probe: the corpus's
// bound specs are traversed at Workers = 1 by calling the layers'
// exported functions directly, adding one layer per pass (enumeration,
// then Snowcat evaluation, then Pareto building), so each layer's self
// time is the difference between consecutive passes. The multilevel and
// fusion specs are timed whole.
func deriveLayers(e *env) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	var tilings, mappings, adds, frontier int64
	var visitT, evalT, addT, unionT, d1T, dNT time.Duration
	var boundAllocs, boundBytes uint64
	corpus := deriveCorpus(e.cfg.small)
	for _, in := range corpus {
		if in.spec.Kind != shard.KindBound {
			continue
		}
		ein := in.spec.Einsum
		opts := bound.Options{Workers: 1}
		if in.spec.Bound != nil {
			opts.ImperfectExtra = in.spec.Bound.ImperfectExtra
		}
		en := mapping.NewEnum(ein)
		if opts.ImperfectExtra > 0 {
			en = mapping.NewImperfectEnum(ein, opts.ImperfectExtra)
		}
		n := en.Tilings()
		tilings += n
		ev := snowcat.NewEvaluator(ein)
		eval := ev.EvaluateCompact
		if opts.ImperfectExtra > 0 {
			eval = ev.EvaluateImperfectCompact
		}

		var visited int64
		visitT += timed(func() { en.Visit(0, n, func(*mapping.Mapping) { visited++ }) })
		mappings += visited
		evalT += timed(func() { en.Visit(0, n, func(m *mapping.Mapping) { _, _ = eval(m) }) })
		// Two half-space builders, so that the union of their frontiers
		// is measured on the same points.
		var curves [2]*pareto.Curve
		addT += timed(func() {
			for h, r := range [2][2]int64{{0, n / 2}, {n / 2, n}} {
				b := pareto.NewBuilder()
				en.Visit(r[0], r[1], func(m *mapping.Mapping) { b.Add(eval(m)) })
				curves[h] = b.Curve()
			}
		})
		adds += visited
		unionT += timed(func() { frontier += int64(pareto.Union(curves[0], curves[1]).Len()) })

		var r1 bound.Result
		var err error
		c, b := allocs(func() {
			d1T += timed(func() { r1, err = bound.DeriveRange(ctx, ein, opts, 0, n) })
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		boundAllocs, boundBytes = boundAllocs+c, boundBytes+b
		o.attempted++
		e.check(o, in.name, resultDigest(r1.Curve, nil))

		optsN := opts
		optsN.Workers = runtime.NumCPU()
		dNT += timed(func() { _, err = bound.DeriveRange(ctx, ein, optsN, 0, n) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
	}
	nsPer := func(d time.Duration, n int64) float64 { return float64(d.Nanoseconds()) / float64(n) }
	o.count("mapping.tilings", float64(tilings))
	o.count("mapping.mappings", float64(mappings))
	o.count("bound.allocs_per_tiling", float64(boundAllocs)/float64(tilings))
	o.layer("bound.bytes_per_tiling", float64(boundBytes)/float64(tilings), "B")
	o.layer("mapping.visit_ns_per_tiling", nsPer(visitT, tilings), "ns")
	o.layer("snowcat.eval_ns_per_mapping", nsPer(evalT-visitT, mappings), "ns")
	o.layer("pareto.add_ns_per_point", nsPer(addT-evalT, adds), "ns")
	o.layer("pareto.union_us", us(unionT), "us")
	o.layer("pareto.frontier_ratio", float64(frontier)/float64(adds), "fraction")
	o.layer("traverse.speedup", d1T.Seconds()/dNT.Seconds(), "x")
	o.layer("traverse.overhead_frac", (d1T-addT-unionT).Seconds()/d1T.Seconds(), "fraction")
	o.layer("bound.tilings_per_s", float64(tilings)/d1T.Seconds(), "1/s")

	for _, in := range corpus {
		switch in.spec.Kind {
		case shard.KindMultiLevel:
			space, err := in.spec.Space()
			if err != nil {
				return nil, err
			}
			var r *multilevel.Result
			var d time.Duration
			c, _ := allocs(func() {
				d = timed(func() {
					r, err = multilevel.DeriveRange(ctx, in.spec.Einsum, in.spec.MultiLevel.L1CapBytes, 0, space, multilevel.Options{Workers: 1})
				})
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.name, err)
			}
			o.attempted++
			e.check(o, in.name, resultDigest(r.DRAM, nil))
			o.count("multilevel.allocs_per_tiling", float64(c)/float64(space))
			o.layer("multilevel.tilings_per_s", float64(space)/d.Seconds(), "1/s")
		case shard.KindSegmentation:
			chain := in.spec.Chain
			var m *workload.Spec
			var err error
			o.layer("fusion.perop_s", timed(func() { m, err = in.spec.Materialize(ctx, workload.Exec{Workers: 1}) }).Seconds(), "s")
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.name, err)
			}
			sw, err := fusion.NewSegmentationSweep(chain, m.PerOp)
			if err != nil {
				return nil, err
			}
			o.layer("fusion.segmentation_s", timed(func() { _, _, err = sw.Range(ctx, 0, sw.Space(), 1) }).Seconds(), "s")
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.name, err)
			}
		case shard.KindFusionTiled:
			space, err := fusion.TiledFusionSpace(in.spec.Chain)
			if err != nil {
				return nil, err
			}
			var c *pareto.Curve
			o.layer("fusion.tiled_s", timed(func() { c, _, err = fusion.TiledFusionRange(ctx, in.spec.Chain, 0, space, 1) }).Seconds(), "s")
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.name, err)
			}
			o.attempted++
			e.check(o, in.name, resultDigest(c, nil))
		}
	}
	return o, nil
}
