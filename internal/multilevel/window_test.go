package multilevel

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/einsum"
	"repro/internal/shape"
)

// comboKinds counts, over the combinations [lo, hi) of e, those that do
// not fit l1CapBytes and those that fit but have a tensor with no
// iterating relevant mid loop — the combinations that bypass the DRAM
// cache's all-mid-iterating fast path.
func comboKinds(e *einsum.Einsum, l1CapBytes, lo, hi int64) (infeasible, partialMid int64) {
	n := len(e.Ranks)
	options := make([][]shape.ThreeSplit, n)
	for i, r := range e.Ranks {
		options[i] = shape.ThreeSplits(r.Shape)
	}
	tiles0 := map[string]int64{}
	for flat := lo; flat < hi; flat++ {
		rem := flat
		mid := map[string]int64{}
		for i := n - 1; i >= 0; i-- {
			k := int64(len(options[i]))
			ts := options[i][rem%k]
			rem /= k
			tiles0[e.Ranks[i].Name] = ts.L0
			mid[e.Ranks[i].Name] = ts.L1
		}
		var buf1 int64
		allMid := true
		for ti := range e.Tensors {
			t := &e.Tensors[ti]
			buf1 += e.Footprint(t, tiles0)
			iterates := false
			for _, r := range e.Ranks {
				iterates = iterates || (t.Relevant(r.Name) && mid[r.Name] > 1)
			}
			allMid = allMid && iterates
		}
		switch {
		case buf1*e.ElementSize > l1CapBytes:
			infeasible++
		case !allMid:
			partialMid++
		}
	}
	return infeasible, partialMid
}

// TestWindowedDeriveMatchesFrozenReference slides windows shorter than one
// run of the last rank (the span over which a worker's DRAM cache lives)
// across the space: each window's curves, mapping count and joint table
// must equal the order-pair reference over the same window, at 1–3
// workers. The last ranks are long enough that a worker's chunk holds
// several combinations, so cache entries are hit and a chunk crosses a
// carry of the leading ranks. One capacity leaves some combinations
// infeasible, and some windows hold combinations with a tensor that no
// mid loop iterates.
func TestWindowedDeriveMatchesFrozenReference(t *testing.T) {
	cases := []struct {
		e  *einsum.Einsum
		l1 int64
	}{
		{einsum.GEMM("gemm", 4, 6, 720), 1 << 10},
		{einsum.GEMM("gemm", 4, 6, 720), 1 << 30},
		{einsum.GroupedBMM("gbmm", 4, 2, 2, 3, 144), 1 << 30},
	}
	var infeasible, partialMid int64
	for _, c := range cases {
		space, err := Space(c.e)
		if err != nil {
			t.Fatal(err)
		}
		run := int64(len(shape.ThreeSplits(c.e.Ranks[len(c.e.Ranks)-1].Shape)))
		width := run - 1
		// The step is no multiple of the run, so the windows cross a carry
		// at different points.
		step := space/10 + 1
		if step%run == 0 {
			step++
		}
		for lo := int64(0); lo+width <= space; lo += step {
			hi := lo + width
			inf, part := comboKinds(c.e, c.l1, lo, hi)
			infeasible += inf
			partialMid += part
			want := referenceDerive(c.e, c.l1, lo, hi)
			for workers := 1; workers <= 3; workers++ {
				got, err := DeriveRange(context.Background(), c.e, c.l1, lo, hi, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got.DRAM.Canonical() != want.DRAM.Canonical() || got.L2.Canonical() != want.L2.Canonical() ||
					got.Mappings != want.Mappings || !reflect.DeepEqual(got.joint, want.joint) {
					t.Fatalf("%s l1=%d [%d, %d) workers=%d: got DRAM %s L2 %s, reference DRAM %s L2 %s",
						c.e.Name, c.l1, lo, hi, workers, got.DRAM.Canonical(), got.L2.Canonical(),
						want.DRAM.Canonical(), want.L2.Canonical())
				}
			}
		}
	}
	if infeasible == 0 || partialMid == 0 {
		t.Fatalf("windows held %d infeasible and %d partially mid-iterating combinations, want both > 0",
			infeasible, partialMid)
	}
}
