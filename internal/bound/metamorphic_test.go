package bound

import (
	"context"
	"testing"

	"repro/internal/einsum"
	"repro/internal/einsum/einsumtest"
	"repro/internal/pareto"
)

// TestRelabelledEinsumSameCurve: listing the ranks in another order,
// renaming them or listing the tensors in another order describes the same
// computation, so the full curve, the mapping count and the tiling count
// must not change — perfect and imperfect, whole and as a union of range
// partials. Rank order fixes which rank varies fastest and every rank's
// stride, which the twin-tiling shortcut reads.
func TestRelabelledEinsumSameCurve(t *testing.T) {
	workloads := []*einsum.Einsum{
		einsum.GEMM("gemm", 30, 36, 12),
		einsum.GroupedBMM("gbmm", 12, 3, 6, 4, 10),
		einsum.Conv2D("conv-t2", einsum.ConvConfig{P: 6, Q: 10, N: 4, C: 2, R: 3, S: 1, T: 2}),
	}
	for _, e := range workloads {
		for _, opts := range []Options{{Workers: 2}, {ImperfectExtra: 6, Workers: 2}} {
			want := Derive(e, opts)
			for _, v := range einsumtest.Variants(e) {
				got := Derive(v.E, opts)
				if got.Curve.Canonical() != want.Curve.Canonical() {
					t.Fatalf("%s %s %+v: curve changed\n got %s\nwant %s",
						e.Name, v.Name, opts, got.Curve.Canonical(), want.Curve.Canonical())
				}
				if got.Stats.MappingsEvaluated != want.Stats.MappingsEvaluated || got.Stats.Tilings != want.Stats.Tilings {
					t.Fatalf("%s %s %+v: %d mappings over %d tilings, want %d over %d", e.Name, v.Name, opts,
						got.Stats.MappingsEvaluated, got.Stats.Tilings, want.Stats.MappingsEvaluated, want.Stats.Tilings)
				}
				space := Space(v.E, opts)
				var parts []*pareto.Curve
				for _, r := range [][2]int64{{0, space / 3}, {space / 3, space - 1}, {space - 1, space}} {
					p, err := DeriveRange(context.Background(), v.E, opts, r[0], r[1])
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, p.Curve)
				}
				merged := pareto.Union(parts...)
				merged.AlgoMinBytes, merged.TotalOperandBytes = parts[0].AlgoMinBytes, parts[0].TotalOperandBytes
				if merged.Canonical() != want.Curve.Canonical() {
					t.Fatalf("%s %s %+v: union of range partials differs from the full curve", e.Name, v.Name, opts)
				}
			}
		}
	}
}
