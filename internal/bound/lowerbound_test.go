package bound_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
)

// gemmIOLowerBound is the analytic data-movement lower bound of an
// M×K×N GEMM with a buffer of s elements, in elements: every operand is
// read and the output written at least once (MK+KN+MN), and by the
// Irony–Toledo–Tiskin refinement of Hong–Kung's red-blue pebble bound no
// schedule of the MNK multiply-adds moves fewer than MNK/(2√2·√s) − s
// elements. It is written from those papers' formulas and shares no
// code with the mapspace engine.
func gemmIOLowerBound(m, k, n int64, s float64) float64 {
	fm, fk, fn := float64(m), float64(k), float64(n)
	compulsory := fm*fk + fk*fn + fm*fn
	pebble := fm*fk*fn/(2*math.Sqrt2*math.Sqrt(s)) - s
	return math.Max(compulsory, pebble)
}

// TestGEMMCurveAboveAnalyticLowerBound is an oracle independent of the
// engine's model: every point of bound.Derive's curve for a handful of
// GEMMs, perfect and imperfect factorizations alike, must move at least
// the analytic lower bound for its buffer size. The slack (curve ÷ bound)
// at the smallest buffer, where the pebble term bites, is logged.
func TestGEMMCurveAboveAnalyticLowerBound(t *testing.T) {
	for _, tc := range []struct {
		m, k, n   int64
		imperfect int
	}{
		{32, 24, 16, 0},
		{64, 64, 64, 0},
		{128, 96, 64, 0},
		{96, 80, 72, 4},
		{61, 53, 47, 4},
		{256, 192, 128, 2},
	} {
		name := fmt.Sprintf("%dx%dx%d/imperfect-%d", tc.m, tc.k, tc.n, tc.imperfect)
		t.Run(name, func(t *testing.T) {
			e := einsum.GEMM("gemm", tc.m, tc.k, tc.n)
			c := bound.Derive(e, bound.Options{Workers: 2, ImperfectExtra: tc.imperfect}).Curve
			pts := c.Points()
			if len(pts) == 0 {
				t.Fatal("empty curve")
			}
			elem := float64(e.ElementSize)
			for _, p := range pts {
				s := float64(p.BufferBytes) / elem
				got := float64(p.AccessBytes) / elem
				if lb := gemmIOLowerBound(tc.m, tc.k, tc.n, s); got < lb {
					t.Fatalf("point (%d B buffer, %d B accesses) moves %.0f elements, below the analytic lower bound %.1f",
						p.BufferBytes, p.AccessBytes, got, lb)
				}
			}
			first := pts[0]
			s := float64(first.BufferBytes) / elem
			t.Logf("%d points; smallest buffer %d elements: %.0f accesses vs bound %.1f (slack %.2fx)",
				len(pts), int64(s), float64(first.AccessBytes)/elem, gemmIOLowerBound(tc.m, tc.k, tc.n, s),
				float64(first.AccessBytes)/elem/gemmIOLowerBound(tc.m, tc.k, tc.n, s))
		})
	}
}
