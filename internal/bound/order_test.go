package bound

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/einsum"
	"repro/internal/mapping"
	"repro/internal/pareto"
	"repro/internal/snowcat"
)

// exhaustiveCurve is the reference derivation DeriveRange replaced: every
// mapping (tiling × distinct outer order) evaluated by the per-mapping
// evaluator and fed to one Pareto builder. It returns the annotated curve
// and the number of mappings visited.
func exhaustiveCurve(e *einsum.Einsum, opts Options) (*pareto.Curve, int64) {
	ev := snowcat.NewEvaluator(e)
	eval := ev.EvaluateCompact
	switch {
	case opts.ImperfectExtra > 0:
		eval = ev.EvaluateImperfectCompact
	case opts.ChargeSpills:
		eval = ev.EvaluateCompactSpillCharged
	}
	en := newEnum(e, opts)
	b := pareto.NewBuilder()
	var n int64
	en.Visit(0, en.Tilings(), func(m *mapping.Mapping) {
		b.Add(eval(m))
		n++
	})
	c := b.Curve()
	c.AlgoMinBytes = e.AlgorithmicMinBytes()
	c.TotalOperandBytes = e.TotalOperandBytes()
	return c, n
}

func orderParityWorkloads() []*einsum.Einsum {
	return []*einsum.Einsum{
		einsum.GEMM("gemm", 24, 36, 16),
		einsum.Conv2D("conv-t2", einsum.ConvConfig{P: 6, Q: 4, N: 8, C: 4, R: 3, S: 3, T: 2}),
		einsum.BMM("bmm", 4, 12, 8, 6),
		einsum.GroupedBMM("gbmm", 8, 2, 6, 8, 4),
	}
}

// TestDeriveMatchesExhaustiveOrders pins the one-evaluation-per-tiling
// traversal to the exhaustive per-order reference: byte-identical curves
// at 1–4 workers in every accounting model, the same mapping count, and
// one evaluation per tiling.
func TestDeriveMatchesExhaustiveOrders(t *testing.T) {
	for _, e := range orderParityWorkloads() {
		for _, opts := range []Options{{}, {ImperfectExtra: 3}, {ChargeSpills: true}} {
			want, mappings := exhaustiveCurve(e, opts)
			if opts.ImperfectExtra == 0 && mappings != mapping.SpaceSize(e) {
				t.Fatalf("%s: reference visited %d mappings, SpaceSize %d", e.Name, mappings, mapping.SpaceSize(e))
			}
			for workers := 1; workers <= 4; workers++ {
				opts.Workers = workers
				got := Derive(e, opts)
				if got.Curve.Canonical() != want.Canonical() {
					t.Fatalf("%s %+v: curve differs from the exhaustive reference\n got %s\nwant %s",
						e.Name, opts, got.Curve.Canonical(), want.Canonical())
				}
				if got.Stats.MappingsEvaluated != mappings {
					t.Fatalf("%s %+v: MappingsEvaluated %d, reference visited %d",
						e.Name, opts, got.Stats.MappingsEvaluated, mappings)
				}
				if tilings := Space(e, opts); got.Stats.Tilings != tilings {
					t.Fatalf("%s %+v: %d tilings evaluated, space has %d", e.Name, opts, got.Stats.Tilings, tilings)
				}
			}
		}
	}
}

// TestDeriveRangeCountsCoveredMappings: a range's count is the mappings of
// exactly its tilings, so shard partials keep summing to SpaceSize.
func TestDeriveRangeCountsCoveredMappings(t *testing.T) {
	e := einsum.Conv2D("conv-t2", einsum.ConvConfig{P: 6, Q: 4, N: 8, C: 4, R: 3, S: 3, T: 2})
	en := mapping.NewEnum(e)
	lo, hi := en.Tilings()/5, en.Tilings()/2
	var want int64
	en.Visit(lo, hi, func(*mapping.Mapping) { want++ })
	r, err := DeriveRange(context.Background(), e, Options{Workers: 3}, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.MappingsEvaluated != want || r.Stats.Tilings != hi-lo {
		t.Fatalf("range [%d, %d): %d mappings over %d tilings, want %d over %d",
			lo, hi, r.Stats.MappingsEvaluated, r.Stats.Tilings, want, hi-lo)
	}
}

// TestGEMMTransposeSymmetry: B = A·W and Bᵀ = Wᵀ·Aᵀ move the same data, so
// swapping a GEMM's M and N extents must give the identical curve.
func TestGEMMTransposeSymmetry(t *testing.T) {
	for _, opts := range []Options{{}, {ImperfectExtra: 4}, {ChargeSpills: true}} {
		a := Derive(einsum.GEMM("g", 48, 20, 18), opts).Curve
		b := Derive(einsum.GEMM("g", 18, 20, 48), opts).Curve
		if a.Canonical() != b.Canonical() {
			t.Fatalf("%+v: M↔N swap changed the curve\n%s\n%s", opts, a.Canonical(), b.Canonical())
		}
	}
}

// TestElementSizeScalesBothAxes: every byte count is an element count
// times the element size, so doubling it doubles every point's buffer
// and accesses (and the annotations).
func TestElementSizeScalesBothAxes(t *testing.T) {
	for _, e := range orderParityWorkloads() {
		for _, opts := range []Options{{}, {ImperfectExtra: 3}, {ChargeSpills: true}} {
			wide := *e
			wide.ElementSize = 2 * e.ElementSize
			narrow, doubled := Derive(e, opts).Curve, Derive(&wide, opts).Curve
			np, dp := narrow.Points(), doubled.Points()
			if len(np) != len(dp) || doubled.AlgoMinBytes != 2*narrow.AlgoMinBytes {
				t.Fatalf("%s %+v: %d points / algo min %d at 2x element size, want %d / %d",
					e.Name, opts, len(dp), doubled.AlgoMinBytes, len(np), 2*narrow.AlgoMinBytes)
			}
			for i := range np {
				if dp[i].BufferBytes != 2*np[i].BufferBytes || dp[i].AccessBytes != 2*np[i].AccessBytes {
					t.Fatalf("%s %+v: point %d is %+v at 2x element size, want twice %+v",
						e.Name, opts, i, dp[i], np[i])
				}
			}
		}
	}
}

// TestDeriveBeyond64Ranks: shape-1 ranks never iterate, so a GEMM padded
// with 70 of them (more ranks than a 64-bit mask holds) derives the
// GEMM's curve and mapping count, serially and in parallel.
func TestDeriveBeyond64Ranks(t *testing.T) {
	e := einsum.GEMM("g", 12, 8, 6)
	padded := einsum.GEMM("g", 12, 8, 6)
	for i := 0; i < 70; i++ {
		name := fmt.Sprintf("U%d", i)
		padded.Ranks = append(padded.Ranks, einsum.Rank{Name: name, Shape: 1})
		padded.Tensors[0].Dims = append(padded.Tensors[0].Dims, einsum.Dim{Terms: []einsum.Term{{Rank: name, Coeff: 1}}})
	}
	if err := padded.Validate(); err != nil {
		t.Fatal(err)
	}
	want := Derive(e, Options{Workers: 1})
	for workers := 1; workers <= 4; workers++ {
		got := Derive(padded, Options{Workers: workers})
		if got.Curve.Canonical() != want.Curve.Canonical() || got.Stats.MappingsEvaluated != want.Stats.MappingsEvaluated {
			t.Fatalf("%d workers: padded GEMM gave %d mappings, curve\n%s\nwant %d, curve\n%s", workers,
				got.Stats.MappingsEvaluated, got.Curve.Canonical(), want.Stats.MappingsEvaluated, want.Curve.Canonical())
		}
	}
}
