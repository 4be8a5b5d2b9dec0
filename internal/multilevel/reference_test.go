package multilevel

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/einsum"
	"repro/internal/nest"
	"repro/internal/pareto"
	"repro/internal/shape"
)

// referenceDerive is a frozen copy of the per-order three-level traversal
// DeriveRange replaced: every combination expanded into every (outer, mid)
// order pair, each pair evaluated with the product rule on the composite
// nest and added to both builders and the joint table. Serial, over the
// combinations [lo, hi).
func referenceDerive(e *einsum.Einsum, l1CapBytes, lo, hi int64) *Result {
	n := len(e.Ranks)
	names := make([]string, n)
	options := make([][]shape.ThreeSplit, n)
	for i, r := range e.Ranks {
		names[i] = r.Name
		options[i] = shape.ThreeSplits(r.Shape)
	}
	tensors := make([]*einsum.Tensor, len(e.Tensors))
	for i := range e.Tensors {
		tensors[i] = &e.Tensors[i]
	}
	es := e.ElementSize
	perms := shape.Permutations(n)
	dramB, l2B := pareto.NewBuilder(), pareto.NewBuilder()
	res := &Result{L1CapacityBytes: l1CapBytes, joint: map[int64]jointEntry{}}

	tiles0, tiles1 := map[string]int64{}, map[string]int64{}
	boundsMid, boundsOut := map[string]int64{}, map[string]int64{}
	fp0 := make([]int64, len(tensors))
	fp1 := make([]int64, len(tensors))
	loops := make([]nest.Loop, 2*n)
	idx := make([]int, n)
	rem := lo
	for i := n - 1; i >= 0; i-- {
		k := int64(len(options[i]))
		idx[i] = int(rem % k)
		rem /= k
	}
	for flat := lo; flat < hi; flat++ {
		for i, name := range names {
			ts := options[i][idx[i]]
			tiles0[name] = ts.L0
			tiles1[name] = ts.L0 * ts.L1
			boundsMid[name] = ts.L1
			boundsOut[name] = ts.L2
		}
		var buf1, buf2 int64
		for i, t := range tensors {
			fp0[i] = e.Footprint(t, tiles0)
			fp1[i] = e.Footprint(t, tiles1)
			buf1 += fp0[i]
			buf2 += fp1[i]
		}
		if buf1*es <= l1CapBytes {
			key := buf2 * es
			for _, pOut := range perms {
				for i, p := range pOut {
					loops[i] = nest.Loop{Rank: names[p], Bound: boundsOut[names[p]]}
				}
				var dram int64
				for i, t := range tensors {
					dram += fp1[i] * nest.Iterations(loops[:n], t.Relevant)
				}
				dramB.Add(key, dram*es)
				for _, pMid := range perms {
					for i, p := range pMid {
						loops[n+i] = nest.Loop{Rank: names[p], Bound: boundsMid[names[p]]}
					}
					var l2 int64
					for i, t := range tensors {
						l2 += fp0[i] * nest.Iterations(loops, t.Relevant)
					}
					res.Mappings++
					l2B.Add(key, l2*es)
					je, ok := res.joint[key]
					if !ok || je.better(dram*es, l2*es) {
						res.joint[key] = jointEntry{dram: dram * es, l2: l2 * es}
					}
				}
			}
		}
		for i := n - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(options[i]) {
				break
			}
			idx[i] = 0
		}
	}
	res.DRAM = dramB.Curve()
	res.DRAM.AlgoMinBytes = e.AlgorithmicMinBytes()
	res.DRAM.TotalOperandBytes = e.TotalOperandBytes()
	res.L2 = l2B.Curve()
	res.L2.AlgoMinBytes = e.AlgorithmicMinBytes()
	res.L2.TotalOperandBytes = e.TotalOperandBytes()
	return res
}

// TestDeriveMatchesFrozenReference: the per-level order minima reproduce
// the exhaustive (outer, mid) order-pair traversal exactly — both curves,
// the mapping count and every joint-table entry — at 1–4 workers and
// across range splits.
func TestDeriveMatchesFrozenReference(t *testing.T) {
	cases := []struct {
		e  *einsum.Einsum
		l1 int64
	}{
		{einsum.GEMM("gemm", 16, 12, 8), 512},
		{einsum.GEMM("gemm", 16, 12, 8), 1 << 30},
		{einsum.BMM("bmm", 2, 8, 4, 6), 256},
		{einsum.GroupedBMM("gbmm", 4, 2, 4, 2, 6), 256},
	}
	for _, c := range cases {
		space, err := Space(c.e)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceDerive(c.e, c.l1, 0, space)
		for workers := 1; workers <= 4; workers++ {
			full, err := Derive(c.e, c.l1, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			var parts []*Result
			for _, r := range [][2]int64{{0, space / 3}, {space / 3, space}} {
				p, err := DeriveRange(context.Background(), c.e, c.l1, r[0], r[1], Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, p)
			}
			merged, err := Merge(parts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []*Result{full, merged} {
				if got.DRAM.Canonical() != want.DRAM.Canonical() || got.L2.Canonical() != want.L2.Canonical() {
					t.Fatalf("%s l1=%d workers=%d: curves differ from the reference\nDRAM %s\n     %s\nL2   %s\n     %s",
						c.e.Name, c.l1, workers, got.DRAM.Canonical(), want.DRAM.Canonical(),
						got.L2.Canonical(), want.L2.Canonical())
				}
				if got.Mappings != want.Mappings {
					t.Fatalf("%s l1=%d workers=%d: %d mappings, reference %d",
						c.e.Name, c.l1, workers, got.Mappings, want.Mappings)
				}
				if !reflect.DeepEqual(got.joint, want.joint) {
					t.Fatalf("%s l1=%d workers=%d: joint table differs from the reference", c.e.Name, c.l1, workers)
				}
			}
		}
	}
}

// TestEveryCombinationMatchesFrozenReference checks each three-split
// combination on its own, so a wrong per-combination answer cannot hide
// behind another combination with the same L2 footprint: both curves and
// the joint entry (which needs the lexicographic DRAM-then-L2 order
// search, not the two separate minima) must match the order-pair
// enumeration.
func TestEveryCombinationMatchesFrozenReference(t *testing.T) {
	for _, e := range []*einsum.Einsum{
		einsum.GEMM("gemm", 8, 12, 6),
		einsum.GroupedBMM("gbmm", 4, 2, 4, 2, 6),
	} {
		space, err := Space(e)
		if err != nil {
			t.Fatal(err)
		}
		const l1 = 1 << 30 // every combination feasible
		for i := int64(0); i < space; i++ {
			got, err := DeriveRange(context.Background(), e, l1, i, i+1, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := referenceDerive(e, l1, i, i+1)
			if got.DRAM.Canonical() != want.DRAM.Canonical() || got.L2.Canonical() != want.L2.Canonical() ||
				got.Mappings != want.Mappings || !reflect.DeepEqual(got.joint, want.joint) {
				t.Fatalf("%s combination %d: got DRAM %s L2 %s joint %v, reference DRAM %s L2 %s joint %v",
					e.Name, i, got.DRAM.Canonical(), got.L2.Canonical(), got.joint,
					want.DRAM.Canonical(), want.L2.Canonical(), want.joint)
			}
		}
	}
}

// TestGEMMTransposeSymmetry: swapping a GEMM's M and N extents transposes
// the computation, so both three-level curves and the joint answers must
// be unchanged.
func TestGEMMTransposeSymmetry(t *testing.T) {
	a, err := Derive(einsum.GEMM("g", 16, 8, 6), 256, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Derive(einsum.GEMM("g", 6, 8, 16), 256, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.DRAM.Canonical() != b.DRAM.Canonical() || a.L2.Canonical() != b.L2.Canonical() {
		t.Fatal("M↔N swap changed the three-level curves")
	}
	if a.Mappings != b.Mappings || !reflect.DeepEqual(a.joint, b.joint) {
		t.Fatal("M↔N swap changed the mapping count or the joint table")
	}
}

// TestElementSizeScalesBothAxes: with the L1 capacity scaled alongside,
// doubling the element size doubles every point of both curves.
func TestElementSizeScalesBothAxes(t *testing.T) {
	e := einsum.BMM("bmm", 2, 8, 4, 6)
	wide := *e
	wide.ElementSize = 2 * e.ElementSize
	narrow, err := Derive(e, 256, Options{})
	if err != nil {
		t.Fatal(err)
	}
	doubled, err := Derive(&wide, 512, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*pareto.Curve{{narrow.DRAM, doubled.DRAM}, {narrow.L2, doubled.L2}} {
		np, dp := pair[0].Points(), pair[1].Points()
		if len(np) != len(dp) {
			t.Fatalf("%d points at 2x element size, want %d", len(dp), len(np))
		}
		for i := range np {
			if dp[i].BufferBytes != 2*np[i].BufferBytes || dp[i].AccessBytes != 2*np[i].AccessBytes {
				t.Fatalf("point %d is %+v at 2x element size, want twice %+v", i, dp[i], np[i])
			}
		}
	}
}
