package multilevel

import (
	"fmt"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/pareto"
)

func TestDeriveSmallGEMM(t *testing.T) {
	g := einsum.GEMM("g", 32, 32, 32)
	r, err := Derive(g, 1<<10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.DRAM.Empty() || r.L2.Empty() {
		t.Fatal("empty curves")
	}
	if r.Mappings == 0 {
		t.Fatal("no mappings evaluated")
	}
	// DRAM floor is still the algorithmic minimum (full L2 buffering with
	// a small L1 streaming tile is in the space).
	if r.DRAM.MinAccessBytes() != g.AlgorithmicMinBytes() {
		t.Fatalf("DRAM floor %d != algo min %d",
			r.DRAM.MinAccessBytes(), g.AlgorithmicMinBytes())
	}
}

func TestThreeLevelNeverBelowTwoLevel(t *testing.T) {
	g := einsum.GEMM("g", 32, 32, 32)
	two := bound.Derive(g, bound.Options{Workers: 1}).Curve
	r, err := Derive(g, 256, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.DRAM.Points() {
		bnd, ok := two.AccessesAt(p.BufferBytes)
		if !ok || p.AccessBytes < bnd {
			t.Fatalf("three-level point %+v below the two-level bound (%d,%v)", p, bnd, ok)
		}
	}
}

func TestHugeL1RecoversTwoLevelCurve(t *testing.T) {
	// With an unconstrained L1, the three-level DRAM curve matches the
	// two-level bound at every two-level breakpoint.
	g := einsum.GEMM("g", 16, 16, 16)
	two := bound.Derive(g, bound.Options{Workers: 1}).Curve
	r, err := Derive(g, 1<<30, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range two.Points() {
		acc, ok := r.DRAM.AccessesAt(p.BufferBytes)
		if !ok || acc != p.AccessBytes {
			t.Fatalf("unconstrained L1 should recover the two-level curve at %d: (%d,%v) vs %d",
				p.BufferBytes, acc, ok, p.AccessBytes)
		}
	}
}

func TestCompositionGapExists(t *testing.T) {
	// The loop order that minimizes DRAM traffic is generally not the one
	// that minimizes L2 traffic: at some capacity no mapping attains both
	// per-level optima simultaneously — the reason Fig. 7's composed
	// probe is "valid but not guaranteed tight".
	g := einsum.GEMM("g", 64, 64, 64)
	r, err := Derive(g, 128, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gaps := r.CompositionGap([]int64{512, 1 << 10, 1 << 12, 1 << 14, 1 << 16})
	sawGap := false
	for _, gp := range gaps {
		if !gp.Feasible {
			continue
		}
		if gp.Ratio < 1 {
			t.Fatalf("joint L2 below the unconstrained bound at %d: %+v", gp.L2CapacityBytes, gp)
		}
		if gp.Ratio > 1 {
			sawGap = true
		}
	}
	if !sawGap {
		t.Fatal("expected a composition gap at some capacity")
	}
}

func TestL2TrafficAtLeastDRAM(t *testing.T) {
	g := einsum.GEMM("g", 32, 32, 32)
	r, err := Derive(g, 512, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// At every shared breakpoint, L2->L1 traffic >= DRAM traffic (data
	// reaches L1 through L2).
	for _, p := range r.DRAM.Points() {
		l2, ok := r.L2.AccessesAt(p.BufferBytes)
		if !ok {
			continue
		}
		if l2 < p.AccessBytes {
			t.Fatalf("L2 traffic %d below DRAM traffic %d at %d", l2, p.AccessBytes, p.BufferBytes)
		}
	}
}

// TestParallelMatchesSerial is the determinism contract of the shared
// traversal engine: DRAM/L2 curves, mapping counts, and the joint
// MinL2GivenOptimalDRAM answers are byte-identical for every worker count.
func TestParallelMatchesSerial(t *testing.T) {
	g := einsum.GEMM("g", 32, 32, 32)
	serial, err := Derive(g, 512, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Stats.Workers != 1 {
		t.Fatalf("serial run launched %d workers", serial.Stats.Workers)
	}
	for _, w := range []int{2, 3, 0} {
		par, err := Derive(g, 512, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if par.Mappings != serial.Mappings {
			t.Fatalf("workers=%d: %d mappings vs serial %d", w, par.Mappings, serial.Mappings)
		}
		for name, pair := range map[string][2]interface{ Points() []pareto.Point }{
			"DRAM": {serial.DRAM, par.DRAM},
			"L2":   {serial.L2, par.L2},
		} {
			sp, pp := pair[0].Points(), pair[1].Points()
			if len(sp) != len(pp) {
				t.Fatalf("workers=%d %s: %d points vs serial %d", w, name, len(pp), len(sp))
			}
			for i := range sp {
				if sp[i] != pp[i] {
					t.Fatalf("workers=%d %s point %d: %v vs serial %v", w, name, i, pp[i], sp[i])
				}
			}
		}
		for _, capBytes := range []int64{512, 1 << 10, 1 << 12, 1 << 14, 1 << 16} {
			sl2, sdram, sok := serial.MinL2GivenOptimalDRAM(capBytes)
			pl2, pdram, pok := par.MinL2GivenOptimalDRAM(capBytes)
			if sl2 != pl2 || sdram != pdram || sok != pok {
				t.Fatalf("workers=%d MinL2GivenOptimalDRAM(%d): (%d,%d,%v) vs serial (%d,%d,%v)",
					w, capBytes, pl2, pdram, pok, sl2, sdram, sok)
			}
		}
	}
}

func TestDeriveRejectsBadInput(t *testing.T) {
	g := einsum.GEMM("g", 8, 8, 8)
	if _, err := Derive(g, 0, Options{}); err == nil {
		t.Fatal("zero L1 capacity accepted")
	}
	bad := &einsum.Einsum{Name: "bad", ElementSize: 2}
	if _, err := Derive(bad, 1024, Options{}); err == nil {
		t.Fatal("invalid einsum accepted")
	}
}

// TestDeriveCapsRanks: up to MaxRanks ranks derive (shape-1 padding leaves
// the GEMM's curves unchanged); one more is an error, not a panic.
func TestDeriveCapsRanks(t *testing.T) {
	pad := func(extra int) *einsum.Einsum {
		e := einsum.GEMM("g", 6, 4, 4)
		for i := 0; i < extra; i++ {
			name := fmt.Sprintf("U%d", i)
			e.Ranks = append(e.Ranks, einsum.Rank{Name: name, Shape: 1})
			e.Tensors[1].Dims = append(e.Tensors[1].Dims, einsum.Dim{Terms: []einsum.Term{{Rank: name, Coeff: 1}}})
		}
		return e
	}
	want, err := Derive(pad(0), 64, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Derive(pad(MaxRanks-3), 64, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.DRAM.Canonical() != want.DRAM.Canonical() || got.L2.Canonical() != want.L2.Canonical() {
		t.Fatalf("shape-1 padding changed the curves")
	}
	if _, err := Derive(pad(MaxRanks-2), 64, Options{Workers: 2}); err == nil {
		t.Fatalf("%d ranks accepted", MaxRanks+1)
	}
}
