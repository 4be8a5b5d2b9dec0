package fusion

import (
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/einsum/einsumtest"
)

// chainCurves derives every curve a chain study reports: the per-op
// curves (perfect and imperfect), the unfused sum, tiled fusion, each
// segmentation and the best segmentation, in one canonical string each.
func chainCurves(t *testing.T, c *Chain) []string {
	t.Helper()
	var out []string
	for _, opts := range []bound.Options{{Workers: 2}, {ImperfectExtra: 4, Workers: 2}} {
		perOp := c.PerOpCurves(opts)
		for _, p := range perOp {
			out = append(out, p.Canonical())
		}
		out = append(out, UnfusedCurve(perOp).Canonical())
		study, _, err := SegmentationStudyStats(c, perOp, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range study {
			out = append(out, s.Label+" "+s.Curve.Canonical())
		}
		best, _, err := BestSegmentationStats(c, perOp, 2)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, best.Canonical())
	}
	tiled, _, err := TiledFusionStats(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, tiled.Canonical())
}

// relabelOps returns c with every op's reference Einsum replaced by its
// k-th metamorphic variant.
func relabelOps(c *Chain, k int) *Chain {
	r := *c
	r.Ops = append([]Op(nil), c.Ops...)
	for i := range r.Ops {
		r.Ops[i].Ref = einsumtest.Variants(r.Ops[i].Ref)[k].E
	}
	return &r
}

// TestRelabelledChainSameCurves: relabelling the ranks and tensors of
// every op's Einsum describes the same chain, so the per-op, unfused,
// tiled-fusion and segmentation curves must all stay byte-identical.
func TestRelabelledChainSameCurves(t *testing.T) {
	for _, c := range []*Chain{
		MustChain("gemms", 24, GEMMOp("a", 24, 12, 18), GEMMOp("b", 24, 18, 8), GEMMOp("c", 24, 8, 10)),
		MustChain("attn", 32, AttentionQKOp("qk", 2, 16, 2, 4), AttentionQKVOp("qkv", 2, 16, 2, 4)),
	} {
		want := chainCurves(t, c)
		variants := einsumtest.Variants(c.Ops[0].Ref)
		for k := range variants {
			got := chainCurves(t, relabelOps(c, k))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, %s: curve %d changed\n got %s\nwant %s", c.Name, variants[k].Name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFromEinsumsIgnoresRankAndTensorOrder: the textual-workload path
// reads a GEMM's ranks by name, so listing them or the tensors in another
// order must build a chain with the same tiled-fusion and segmentation
// curves.
func TestFromEinsumsIgnoresRankAndTensorOrder(t *testing.T) {
	es := []*einsum.Einsum{einsum.GEMM("a", 24, 12, 18), einsum.GEMM("b", 24, 18, 8)}
	base, err := FromEinsums("c", es...)
	if err != nil {
		t.Fatal(err)
	}
	want := chainCurves(t, base)
	for k, v := range einsumtest.Variants(es[0]) {
		if v.Name == "ranks renamed" || v.Name == "all relabelled" {
			continue // FromEinsums requires the ranks M, K and N
		}
		relabelled := make([]*einsum.Einsum, len(es))
		for i, e := range es {
			relabelled[i] = einsumtest.Variants(e)[k].E
		}
		c, err := FromEinsums("c", relabelled...)
		if err != nil {
			t.Fatal(err)
		}
		got := chainCurves(t, c)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: curve %d changed\n got %s\nwant %s", v.Name, i, got[i], want[i])
			}
		}
	}
}
