// Command curvewarm warms a durable curve store from a model zoo: it
// walks a directory of serialized workload Spec files
// (docs/workload-spec.md) and runs each through the store — specs whose
// curves are already present are verified and skipped, the rest are
// derived in-process and persisted (docs/curve-store.md). Point it at
// the same -store-dir a running orojenesisd serves from and every warmed
// workload becomes a disk hit for the server, across restarts; the store
// is crash-safe and lock-disciplined, so warming while the server is
// live is supported.
//
// -gen writes a built-in zoo of common tensor shapes — transformer
// projection/attention/MLP GEMMs, a fused MLP chain, a multi-level probe
// — into the spec directory first, so a cache can be warmed from nothing:
//
//	curvewarm -gen -specs zoo/ -store-dir /var/lib/orojenesisd/store
//
// Rerunning is idempotent: everything already derived reports a hit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"

	orojenesis "repro"
	"repro/internal/cliutil"
	"repro/internal/shard"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("curvewarm: ")

	specs := flag.String("specs", "", "directory of workload spec files (*.json) to warm the store from")
	gen := flag.Bool("gen", false, "write the built-in model-zoo spec files into -specs before warming")
	workers := flag.Int("workers", 0, "parallel evaluation goroutines per derivation (0 = GOMAXPROCS)")
	gc := flag.Bool("gc", true, "run a GC sweep after warming so the directory respects -store-max-bytes")
	stf := cliutil.AddStoreFlags(flag.CommandLine)
	flag.Parse()

	if *specs == "" {
		log.Fatal("-specs DIR is required (the model-zoo spec directory; -gen populates it)")
	}
	if stf.Dir == "" {
		log.Fatal("-store-dir DIR is required (the curve store to warm)")
	}
	if *gen {
		if err := writeZoo(*specs); err != nil {
			log.Fatal(err)
		}
	}
	st := stf.Open()
	if st == nil {
		// Unlike the server and the derivation CLIs, a warmer has nothing
		// useful to do without its store.
		log.Fatal("curve store unavailable; nothing to warm")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	outcomes, err := cliutil.WarmSpecDir(ctx, st, *specs, workload.Exec{Workers: *workers}, log.Printf)
	var hits, derived, failed int
	for _, o := range outcomes {
		switch {
		case o.Err != nil:
			failed++
		case o.Hit:
			hits++
		default:
			derived++
		}
	}
	fmt.Printf("warmed %d spec(s): %d already present, %d derived, %d failed\n",
		len(outcomes), hits, derived, failed)
	if *gc {
		st.GC()
	}
	stats := st.StatsSnapshot()
	fmt.Printf("store %s: %d entries, %d bytes (cap %d)\n",
		st.Dir(), stats.Entries, stats.Bytes, stats.MaxBytes)
	if err != nil {
		log.Fatal(err)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// zoo is the built-in model zoo: the repeated tensor shapes real serving
// traffic clusters on — transformer projection, attention-score,
// attention-value, and MLP GEMMs for a 4k-dim model, a square training
// GEMM, a fused MLP chain, and a multi-level probe of the projection.
func zoo() (map[string]*workload.Spec, error) {
	specs := map[string]*workload.Spec{}
	for _, g := range []struct {
		name    string
		m, k, n int64
	}{
		{"llm_qkv_proj", 4096, 4096, 12288},
		{"llm_attn_out", 4096, 4096, 4096},
		{"llm_mlp_up", 4096, 4096, 16384},
		{"llm_mlp_down", 4096, 16384, 4096},
		{"train_square_1k", 1024, 1024, 1024},
	} {
		e := orojenesis.GEMM(g.name, g.m, g.k, g.n)
		specs[g.name] = workload.NewBound(e, orojenesis.Options{})
	}

	// Attention score/value batched matmuls: 32 heads, 2k context,
	// 128-dim heads.
	specs["llm_attn_score"] = workload.NewBound(
		orojenesis.BMM("llm_attn_score", 32, 2048, 128, 2048), orojenesis.Options{})
	specs["llm_attn_value"] = workload.NewBound(
		orojenesis.BMM("llm_attn_value", 32, 2048, 2048, 128), orojenesis.Options{})

	// The fused MLP pair (up projection into down projection), as a
	// tiled-fusion sweep.
	chain, err := orojenesis.NewChain("llm_mlp", 4096,
		orojenesis.GEMMOp("up", 4096, 4096, 16384),
		orojenesis.GEMMOp("down", 4096, 16384, 4096))
	if err != nil {
		return nil, err
	}
	specs["llm_mlp_chain"] = workload.NewFusionTiled(chain)

	// A three-level probe of the projection GEMM with a 256 KiB L1.
	specs["llm_qkv_proj_l1"] = workload.NewMultiLevel(
		orojenesis.GEMM("llm_qkv_proj", 4096, 4096, 12288), 256<<10)
	return specs, nil
}

// writeZoo serializes the built-in zoo into dir, one spec per file,
// atomically (shard.WriteFileAtomic) so a concurrently starting warm walk
// never reads a torn spec.
func writeZoo(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	zs, err := zoo()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(zs))
	for name := range zs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := zs[name].Encode()
		if err != nil {
			return fmt.Errorf("encoding zoo spec %s: %w", name, err)
		}
		path := filepath.Join(dir, name+".json")
		if err := shard.WriteFileAtomic(shard.OS(), path, append(data, '\n')); err != nil {
			return err
		}
		log.Printf("zoo spec -> %s", path)
	}
	return nil
}
