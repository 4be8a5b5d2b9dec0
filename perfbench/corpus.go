package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/fusion"
	"repro/internal/llm"
	"repro/internal/serve"
	"repro/internal/workload"
)

// input is one derivation the benchmark drives: its key into the
// recorded digests, the in-process Spec that defines the expected curve,
// and for served inputs the equivalent POST /v1/curve body.
type input struct {
	name string
	spec *workload.Spec
	req  *serve.Request
}

func conv(name string, pq, nc, rs, stride int64) *einsum.Einsum {
	return einsum.Conv2D(name, einsum.ConvConfig{P: pq, Q: pq, N: nc, C: nc, R: rs, S: rs, T: stride})
}

// deriveCorpus is the derive workload: every engine kind, the
// order-heavy convolutions (about 134 loop orders per tiling) and the
// order-light batched matmuls. small selects the smoke-test sizes.
func deriveCorpus(small bool) []input {
	b := func(e *einsum.Einsum, extra int) input {
		s := workload.NewBound(e, bound.Options{ImperfectExtra: extra})
		return input{name: "bound/" + e.Name, spec: s}
	}
	gpt := llm.GPT3_6_7B()
	if small {
		gpt = gpt.Scaled(64)
	}
	chain := gpt.SixEinsumChain()
	if small {
		ins := []input{
			b(conv("R3S3", 4, 8, 3, 1), 0),
			b(conv("R3S3-T2", 4, 8, 3, 2), 0),
			b(einsum.BMM("bmm_h4", 4, 256, 64, 256), 0),
			b(einsum.GroupedBMM("gbmm_g2", 8, 2, 256, 32, 256), 0),
			b(einsum.GEMM("gemm240_imp4", 240, 240, 240), 4),
			{name: "multilevel/gemm128", spec: workload.NewMultiLevel(einsum.GEMM("gemm128", 128, 128, 128), 16<<10)},
			{name: "fusion-tiled/" + chain.Name, spec: workload.NewFusionTiled(chain)},
			{name: "segmentation/" + chain.Name, spec: workload.NewSegmentation(chain, nil)},
		}
		for i := range ins {
			ins[i].name = "smoke/" + ins[i].name
		}
		return ins
	}
	return []input{
		b(conv("R3S3", 16, 64, 3, 1), 0),
		b(conv("R7S7", 16, 64, 7, 1), 0),
		b(conv("R3S3-T2", 16, 64, 3, 2), 0),
		b(einsum.BMM("bmm_h8", 8, 4096, 512, 4096), 0),
		b(einsum.GroupedBMM("gbmm_g4", 32, 4, 4096, 128, 4096), 0),
		b(einsum.GEMM("gemm5040_imp16", 5040, 5040, 5040), 16),
		{name: "multilevel/gemm512", spec: workload.NewMultiLevel(einsum.GEMM("gemm512", 512, 512, 512), 64<<10)},
		{name: "fusion-tiled/" + chain.Name, spec: workload.NewFusionTiled(chain)},
		{name: "segmentation/" + chain.Name, spec: workload.NewSegmentation(chain, nil)},
	}
}

// catalog is the serve_hits request mix: every request form the server
// accepts (gemm, einsum string, chain, segmentation, multilevel) and
// response sizes from a few hundred bytes to tens of kilobytes, since
// parse and encode cost scale with both. Every entry derives in well
// under a second, so warming the catalog stays a small set-up cost.
func catalog() []input {
	gemm := func(m, k, n int64, extra int) input {
		e := einsum.GEMM(fmt.Sprintf("gemm_%dx%dx%d", m, k, n), m, k, n)
		return input{
			name: fmt.Sprintf("serve/gemm_%dx%dx%d_imp%d", m, k, n, extra),
			spec: workload.NewBound(e, bound.Options{ImperfectExtra: extra}),
			req:  &serve.Request{GEMM: &serve.GEMMSpec{M: m, K: k, N: n}, Options: serve.OptionsSpec{ImperfectExtra: extra}},
		}
	}
	text := func(name string, e *einsum.Einsum) input {
		src := e.String()
		return input{
			name: "serve/einsum_" + name,
			spec: workload.NewBound(einsum.MustParse(src), bound.Options{}),
			req:  &serve.Request{Einsum: src},
		}
	}
	chainOf := func(es ...*einsum.Einsum) ([]string, *fusion.Chain) {
		srcs := make([]string, len(es))
		parsed := make([]*einsum.Einsum, len(es))
		for i, e := range es {
			srcs[i] = e.String()
			parsed[i] = einsum.MustParse(srcs[i])
		}
		c, err := fusion.FromEinsums("chain", parsed...)
		if err != nil {
			panic(err)
		}
		return srcs, c
	}
	pairSrc, pair := chainOf(einsum.GEMM("g0", 1024, 512, 2048), einsum.GEMM("g1", 1024, 2048, 512))
	tripleSrc, triple := chainOf(einsum.GEMM("g0", 512, 256, 1024), einsum.GEMM("g1", 512, 1024, 256), einsum.GEMM("g2", 512, 256, 512))
	ml := einsum.GEMM("gemm_256x256x256", 256, 256, 256)
	return []input{
		gemm(256, 192, 128, 0),
		gemm(1024, 1024, 1024, 0),
		gemm(384, 320, 256, 6),
		text("conv8_r3", conv("conv8_r3", 8, 32, 3, 1)),
		text("bmm_h4", einsum.BMM("bmm_h4", 4, 1024, 64, 1024)),
		text("gbmm_g2", einsum.GroupedBMM("gbmm_g2", 8, 2, 1024, 64, 1024)),
		{name: "serve/chain_pair", spec: workload.NewFusionTiled(pair), req: &serve.Request{Chain: &serve.ChainSpec{Einsums: pairSrc}}},
		{name: "serve/segmentation_triple", spec: workload.NewSegmentation(triple, nil), req: &serve.Request{Segmentation: &serve.SegmentationSpec{Einsums: tripleSrc}}},
		{
			name: "serve/multilevel_gemm256",
			spec: workload.NewMultiLevel(ml, 16<<10),
			req:  &serve.Request{GEMM: &serve.GEMMSpec{M: 256, K: 256, N: 256}, MultiLevel: &serve.MultiLevelSpec{L1CapBytes: 16 << 10}},
		},
	}
}

// coldSpec is the serve_cold derivation, requested fresh on every path.
// One spec keeps each path's median a median of like requests; a
// mid-sized one (about half a second in-process on two cores) gives each
// path about ten samples in a 20 s run and leaves the shard, supervise,
// fleet and store overheads a visible share of each request.
func coldSpec(small bool) input {
	m, extra := int64(2520), 16
	if small {
		m, extra = 240, 4
	}
	e := einsum.GEMM(fmt.Sprintf("gemm_%dx%dx%d", m, m, m), m, m, m)
	return input{
		name: fmt.Sprintf("cold/gemm%d_imp%d", m, extra),
		spec: workload.NewBound(e, bound.Options{ImperfectExtra: extra}),
		req:  &serve.Request{GEMM: &serve.GEMMSpec{M: m, K: m, N: m}, Options: serve.OptionsSpec{ImperfectExtra: extra}},
	}
}

// shuffled returns a seeded permutation of ins.
func shuffled(ins []input, rng *rand.Rand) []input {
	out := append([]input(nil), ins...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
