// Command orojenesis derives single-Einsum data-movement bounds: the
// ski-slope curve (Fig. 1/10/12/13/14), the OI mesa (Fig. 8), multi-level
// probes (Fig. 7) and the max-effectual-buffer ratio study (Fig. 11).
//
// Examples:
//
//	orojenesis -gemm 4096,4096,4096 -summary -probe L1=256KB,L2=40MB
//	orojenesis -bmm 32,4096,128,4096 -csv
//	orojenesis -gbmm 32,8,4096,128,4096 -ascii
//	orojenesis -conv P=16,Q=16,N=64,C=64,R=3,S=3,T=1,D=1 -oi
//	orojenesis -gemm 96,80,72 -imperfect 16   # smoothed (Ruby-style) curve
//	orojenesis -ratio
//
// Sharded derivation (see docs/shard-format.md): each fleet member derives
// one contiguous slice of the mapspace into a resumable partial-frontier
// file, and shardmerge recombines them into the single-process curve:
//
//	orojenesis -gemm 4096,4096,4096 -shard 1/4 -out part1.json
//	...                             -shard 4/4 -out part4.json
//	shardmerge -out curve.json part1.json part2.json part3.json part4.json
//
// Or supervised in one process — all N shards with retry/backoff,
// quarantine of corrupt checkpoints, and resumable SIGINT/SIGTERM (see
// docs/shard-format.md, "Failure model"):
//
//	orojenesis -gemm 4096,4096,4096 -supervise 4 -shard-dir parts/ -out curve.json
//
// Any serialized workload spec (docs/workload-spec.md) runs through the
// same modes, whatever its kind — derivations are first-class values:
//
//	orojenesis -spec spec.json
//	orojenesis -spec spec.json -supervise 4 -shard-dir parts/ -out curve.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	orojenesis "repro"
	"repro/internal/cliutil"
	"repro/internal/pareto"
	"repro/internal/shard"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("orojenesis: ")

	gemm := flag.String("gemm", "", "GEMM shape M,K,N")
	bmm := flag.String("bmm", "", "BMM shape H,M,K,N")
	gbmm := flag.String("gbmm", "", "grouped BMM shape H,G,M,K,N")
	conv := flag.String("conv", "", "conv config P=..,Q=..,N=..,C=..,R=..,S=..[,T=..,D=..]")
	einsumExpr := flag.String("einsum", "", `einsum notation, e.g. "B[m,n] = A[m,k] * W[k,n] {M=4096,K=4096,N=4096}"`)
	csv := flag.Bool("csv", false, "emit the curve as CSV")
	ascii := flag.Bool("ascii", false, "render an ASCII ski-slope chart")
	summary := flag.Bool("summary", true, "print the summary table")
	oiMesa := flag.Bool("oi", false, "emit the attainable-OI mesa as CSV")
	probe := flag.String("probe", "", "probe levels, e.g. L1=256KB,L2=40MB")
	ratio := flag.Bool("ratio", false, "run the Fig. 11 max-effectual-buffer ratio study")
	imperfect := flag.Int("imperfect", 0, "extra imperfect-factor samples per rank (0 = perfect factors only)")
	workers := flag.Int("workers", 0, "parallel evaluation goroutines (0 = GOMAXPROCS)")
	stats := flag.Bool("stats", false, "print traversal statistics (workers used, mappings/sec)")
	specFile := flag.String("spec", "", "run a serialized workload spec (JSON, any kind; see docs/workload-spec.md) instead of workload flags")
	sf := cliutil.AddShardFlags(flag.CommandLine, "tiling indices")
	stf := cliutil.AddStoreFlags(flag.CommandLine)
	flag.Parse()

	opts := orojenesis.Options{ImperfectExtra: *imperfect, Workers: *workers}
	if err := opts.Validate(); err != nil {
		log.Fatal(err)
	}

	if *specFile != "" {
		cliutil.RunSpec(*specFile, sf, stf.Open(), *workers, *stats, summarize)
		return
	}
	if *ratio {
		runRatioStudy()
		return
	}

	e, err := buildWorkload(*gemm, *bmm, *gbmm, *conv, *einsumExpr)
	if err != nil {
		log.Fatal(err)
	}

	if sf.Active() {
		cfg := cliutil.ShardRunConfig{
			Header:    fmt.Sprintf("workload: %s", e),
			IndexNoun: "indices",
			EvalNoun:  "mappings",
			Stats:     *stats,
			Summarize: func(c *pareto.Curve) { summarize(e.Name, c) },
		}
		// Compile through the workload spec rather than shard.BoundJob
		// directly, so every checkpoint manifest embeds the spec and
		// stays resumable by shardmerge -resume alone.
		spec := workload.NewBound(e, opts)
		if sf.Fleet != "" {
			cliutil.RunFleet(cfg, sf, spec, *workers)
			return
		}
		exec := workload.Exec{Workers: *workers}
		mkJob := func(p shard.Plan) (shard.Job, error) { return spec.Compile(p, exec) }
		if sf.Supervise > 0 {
			cliutil.RunSupervised(cfg, sf, mkJob)
			return
		}
		cliutil.RunShard(cfg, sf, mkJob)
		return
	}
	var a *orojenesis.Analysis
	if st := stf.Open(); st != nil {
		// The durable curve tier (docs/curve-store.md): a prior run — or a
		// server sharing the directory — already derived this workload's
		// curve, so replay it and rebuild the report without traversing.
		res, err := cliutil.StoreRun(context.Background(), st,
			workload.NewBound(e, opts), workload.Exec{Workers: *workers})
		if err != nil {
			log.Fatal(err)
		}
		if a, err = orojenesis.AnalyzeCurve(e, res.Curve); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("workload: %s\n", e)
		suffix := ""
		if res.Hit {
			suffix = " (replayed from curve store)"
		}
		fmt.Printf("mappings evaluated: %d in %v%s\n", res.Evaluated, res.Elapsed, suffix)
	} else {
		if a, err = orojenesis.Analyze(e, opts); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("workload: %s\n", e)
		fmt.Printf("mappings evaluated: %d in %v\n", a.Stats.MappingsEvaluated, a.Stats.Elapsed)
		if *stats {
			fmt.Printf("tilings evaluated: %d (covering %d mappings)\n",
				a.Stats.Tilings, a.Stats.MappingsEvaluated)
			fmt.Printf("workers: %d  throughput: %.0f mappings/sec\n",
				a.Stats.Workers, a.Stats.MappingsPerSec())
		}
	}
	fmt.Printf("MACs: %d  algorithmic OI: %.2f  peak attainable OI: %.2f\n",
		a.MACs, a.AlgorithmicOI, a.PeakOI)
	fmt.Printf("algorithmic min: %d B  max effectual buffer: %d B  gap1: %.3f\n",
		a.AlgorithmicMinBytes, a.MaxEffectualBytes, a.Gap1)

	series := orojenesis.Series{Name: e.Name, Curve: a.Curve}
	if *summary {
		fmt.Print(orojenesis.SummaryTable(
			[]int64{1 << 16, 1 << 20, 1 << 24, 40 << 20}, series))
	}
	if *ascii {
		fmt.Print(orojenesis.Ascii(orojenesis.AsciiOptions{}, series))
	}
	if *csv {
		if err := orojenesis.WriteCSV(os.Stdout, series); err != nil {
			log.Fatal(err)
		}
	}
	if *oiMesa {
		fmt.Println("buffer_bytes,oi_macs_per_element")
		for _, p := range orojenesis.OIMesa(a.Curve, a.MACs, e.ElementSize) {
			fmt.Printf("%d,%.4f\n", p.BufferBytes, p.OI)
		}
	}
	if *probe != "" {
		levels, err := cliutil.ParseLevels(*probe)
		if err != nil {
			log.Fatal(err)
		}
		for _, lb := range orojenesis.ProbeLevels(a.Curve, levels) {
			if lb.Feasible {
				fmt.Printf("level %-6s cap %12d B -> bound %d B\n",
					lb.Level, lb.CapacityBytes, lb.AccessBytes)
			} else {
				fmt.Printf("level %-6s cap %12d B -> infeasible\n", lb.Level, lb.CapacityBytes)
			}
		}
	}
}

// summarize renders the single-Einsum summary table for a merged or
// spec-run curve — the Summarize hook of the shared shard runners.
func summarize(name string, c *pareto.Curve) {
	fmt.Print(orojenesis.SummaryTable(
		[]int64{1 << 16, 1 << 20, 1 << 24, 40 << 20},
		orojenesis.Series{Name: name, Curve: c}))
}

func buildWorkload(gemm, bmm, gbmm, conv, einsumExpr string) (*orojenesis.Einsum, error) {
	switch {
	case einsumExpr != "":
		return orojenesis.ParseEinsum(einsumExpr)
	case gemm != "":
		d, err := cliutil.ParseDims(gemm, 3)
		if err != nil {
			return nil, err
		}
		return orojenesis.GEMM(fmt.Sprintf("gemm_%s", gemm), d[0], d[1], d[2]), nil
	case bmm != "":
		d, err := cliutil.ParseDims(bmm, 4)
		if err != nil {
			return nil, err
		}
		return orojenesis.BMM(fmt.Sprintf("bmm_%s", bmm), d[0], d[1], d[2], d[3]), nil
	case gbmm != "":
		d, err := cliutil.ParseDims(gbmm, 5)
		if err != nil {
			return nil, err
		}
		return orojenesis.GroupedBMM(fmt.Sprintf("gbmm_%s", gbmm), d[0], d[1], d[2], d[3], d[4]), nil
	case conv != "":
		cfg, err := cliutil.ParseConv(conv)
		if err != nil {
			return nil, err
		}
		return orojenesis.Conv2D("conv", cfg), nil
	}
	return nil, fmt.Errorf("specify a workload: -gemm, -bmm, -gbmm, -conv or -einsum (see -h)")
}

// runRatioStudy reproduces Fig. 11: the maximal effectual buffer size
// normalized to the total operand size for a sweep of GEMM shapes.
func runRatioStudy() {
	shapes := []struct {
		name    string
		m, k, n int64
	}{
		{"square-1k", 1024, 1024, 1024},
		{"square-2k", 2048, 2048, 2048},
		{"square-4k", 4096, 4096, 4096},
		{"tall-16k_1k_1k", 16384, 1024, 1024},
		{"wide-1k_1k_16k", 1024, 1024, 16384},
		{"deep-1k_16k_1k", 1024, 16384, 1024},
		{"flat-4k_256_4k", 4096, 256, 4096},
	}
	fmt.Println("shape,max_effectual_bytes,total_operand_bytes,ratio,smallest_operand_ratio")
	for _, s := range shapes {
		g := orojenesis.GEMM(s.name, s.m, s.k, s.n)
		a, err := orojenesis.Analyze(g, orojenesis.Options{})
		if err != nil {
			log.Fatal(err)
		}
		ratio, _ := a.Curve.Gap1()
		smallest := float64(g.SmallestOperandElements()*g.ElementSize) /
			float64(g.TotalOperandBytes())
		fmt.Printf("%s,%d,%d,%.4f,%.4f\n",
			s.name, a.MaxEffectualBytes, g.TotalOperandBytes(), ratio, smallest)
	}
}
