package multilevel

import (
	"slices"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
)

// TestUnboundedL1MatchesTwoLevelBound is a cross-engine oracle: with an L1
// that holds anything, the three-level DRAM curve must have exactly the
// points of the two-level perfect-factor curve, although the two engines
// share neither their enumeration nor their evaluator. Only the points
// are compared; the annotations differ by design.
func TestUnboundedL1MatchesTwoLevelBound(t *testing.T) {
	for _, e := range []*einsum.Einsum{
		einsum.GEMM("gemm64x32x48", 64, 32, 48),
		einsum.GEMM("gemm30x12x20", 30, 12, 20),
		einsum.BMM("bmm4x32x16x32", 4, 32, 16, 32),
	} {
		two := bound.Derive(e, bound.Options{Workers: 2}).Curve
		three, err := Derive(e, 1<<40, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if two.Len() < 2 {
			t.Fatalf("%s: two-level curve has %d points", e.Name, two.Len())
		}
		if !slices.Equal(three.DRAM.Points(), two.Points()) {
			t.Fatalf("%s: unbounded-L1 DRAM curve differs from the two-level bound\nthree-level %v\ntwo-level   %v",
				e.Name, three.DRAM.Points(), two.Points())
		}
		t.Logf("%s: %d equal points", e.Name, two.Len())
	}
}
