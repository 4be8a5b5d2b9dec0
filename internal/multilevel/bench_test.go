package multilevel

import (
	"testing"

	"repro/internal/einsum"
)

// BenchmarkDerive measures the three-level traversal. The serial variant
// tracks the per-combination work; the parallel variant tracks the
// traversal engine's scaling. In the "cached" case about two thirds of
// the feasible combinations have a mid loop iterating for every tensor
// and an L2 tile already seen since the last carry, so they take their
// DRAM minimum from the per-worker cache.
func BenchmarkDerive(b *testing.B) {
	for _, bc := range []struct {
		name    string
		g       *einsum.Einsum
		l1      int64
		workers int
	}{
		{"serial", einsum.GEMM("g", 32, 32, 32), 512, 1},
		{"parallel", einsum.GEMM("g", 32, 32, 32), 512, 0},
		{"cached", einsum.GEMM("g", 128, 128, 128), 16 << 10, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Derive(bc.g, bc.l1, Options{Workers: bc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
