package multilevel

import (
	"reflect"
	"testing"

	"repro/internal/einsum"
	"repro/internal/einsum/einsumtest"
)

// TestRelabelledEinsumSameBounds: listing the ranks in another order,
// renaming them or listing the tensors in another order describes the same
// computation, so both three-level curves, the mapping count and the
// whole joint table must not change. Rank order fixes which rank's L2
// tile keys the per-worker DRAM cache.
func TestRelabelledEinsumSameBounds(t *testing.T) {
	cases := []struct {
		e  *einsum.Einsum
		l1 int64
	}{
		{einsum.GEMM("gemm", 16, 12, 8), 512},
		{einsum.GEMM("gemm", 16, 12, 8), 1 << 30},
		{einsum.GroupedBMM("gbmm", 4, 2, 4, 2, 6), 64},
	}
	for _, c := range cases {
		want, err := Derive(c.e, c.l1, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range einsumtest.Variants(c.e) {
			got, err := Derive(v.E, c.l1, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if got.DRAM.Canonical() != want.DRAM.Canonical() || got.L2.Canonical() != want.L2.Canonical() {
				t.Fatalf("%s l1=%d %s: curves changed\nDRAM %s\n     %s\nL2   %s\n     %s", c.e.Name, c.l1, v.Name,
					got.DRAM.Canonical(), want.DRAM.Canonical(), got.L2.Canonical(), want.L2.Canonical())
			}
			if got.Mappings != want.Mappings || !reflect.DeepEqual(got.joint, want.joint) {
				t.Fatalf("%s l1=%d %s: mapping count or joint table changed", c.e.Name, c.l1, v.Name)
			}
		}
	}
}
