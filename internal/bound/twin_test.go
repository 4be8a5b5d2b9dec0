package bound

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/einsum"
	"repro/internal/mapping"
	"repro/internal/shape"
)

// twinWorkloads have imperfect candidates that share an outer count
// ("twins"); the grouped BMM has them on its grouped rank H (H = 12,
// G = 3: inner 4 and 5 both give 3 outer steps, 6 and 8 both give 2).
func twinWorkloads() []struct {
	e     *einsum.Einsum
	extra int
	twin  string // a rank that must have twins
} {
	return []struct {
		e     *einsum.Einsum
		extra int
		twin  string
	}{
		{einsum.GEMM("gemm", 30, 36, 12), 12, "M"},
		{einsum.GroupedBMM("gbmm", 12, 3, 6, 4, 10), 6, "H"},
		{einsum.Conv2D("conv-t2", einsum.ConvConfig{P: 6, Q: 10, N: 4, C: 2, R: 3, S: 1, T: 2}), 4, "Q"},
		{einsum.BMM("bmm", 10, 6, 4, 12), 4, "H"},
	}
}

// hasTwins reports whether some two inner-tile candidates of a rank of
// the given shape share one outer count.
func hasTwins(n int64, extra int) bool {
	seen := map[int64]bool{}
	for _, c := range mapping.ImperfectCandidates(n, extra) {
		o := shape.CeilDiv(n, c)
		if seen[o] {
			return true
		}
		seen[o] = true
	}
	return false
}

// TestTwinSkipMatchesExhaustive pins the twin-tiling shortcut: DeriveRange
// over random windows — many shorter than one step of the leading rank —
// must equal the exhaustive per-mapping reference over the same window at
// 1–3 workers, count the same mappings, and report every tiling. Twins
// must exist in each workload, and some window must skip one (the reduced
// tiling lies inside the window), or the test would prove nothing.
func TestTwinSkipMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, w := range twinWorkloads() {
		e := w.e
		if !hasTwins(e.RankShape(w.twin), w.extra) {
			t.Fatalf("%s: rank %s has no twin candidates at extra %d", e.Name, w.twin, w.extra)
		}
		opts := Options{ImperfectExtra: w.extra}
		en := newEnum(e, opts)
		space := en.Tilings()
		stride0 := space / int64(len(mapping.ImperfectCandidates(e.Ranks[0].Shape, w.extra)))
		var skipped int64
		for trial := 0; trial < 12; trial++ {
			n := 1 + rng.Int63n(150)
			if trial%3 == 2 {
				n = 1 + rng.Int63n(min(space, 4*stride0))
			}
			if n > space {
				n = space
			}
			lo := rng.Int63n(space - n + 1)
			hi := lo + n
			en.VisitTilings(lo, hi, func(flat int64, digits []int, _ []shape.Split) {
				if r := en.ReducedIndex(flat, digits); r != flat && r >= lo {
					skipped++
				}
			})
			want, mappings := exhaustiveRange(e, opts, lo, hi)
			for workers := 1; workers <= 3; workers++ {
				opts.Workers = workers
				got, err := DeriveRange(context.Background(), e, opts, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if got.Curve.Canonical() != want.Canonical() {
					t.Fatalf("%s [%d, %d) workers=%d: curve differs from the exhaustive reference\n got %s\nwant %s",
						e.Name, lo, hi, workers, got.Curve.Canonical(), want.Canonical())
				}
				if got.Stats.MappingsEvaluated != mappings || got.Stats.Tilings != hi-lo {
					t.Fatalf("%s [%d, %d) workers=%d: %d mappings over %d tilings, want %d over %d",
						e.Name, lo, hi, workers, got.Stats.MappingsEvaluated, got.Stats.Tilings, mappings, hi-lo)
				}
			}
		}
		if skipped == 0 {
			t.Fatalf("%s: no window held a twin whose reduced tiling it also held", e.Name)
		}
	}
}

// TestReducedIndexDominates checks the enumeration side of the shortcut
// on every tiling: the reduced index decodes to a tiling with the same
// outer loops and inner tiles no larger, which is itself reduced (the
// first option of each run of equal outer counts).
func TestReducedIndexDominates(t *testing.T) {
	for _, w := range twinWorkloads() {
		en := mapping.NewImperfectEnum(w.e, w.extra)
		tilings := map[int64][]shape.Split{}
		en.VisitTilings(0, en.Tilings(), func(flat int64, _ []int, splits []shape.Split) {
			tilings[flat] = append([]shape.Split(nil), splits...)
		})
		twins := 0
		en.VisitTilings(0, en.Tilings(), func(flat int64, digits []int, splits []shape.Split) {
			r := en.ReducedIndex(flat, digits)
			if r > flat {
				t.Fatalf("%s tiling %d: reduced index %d is larger", w.e.Name, flat, r)
			}
			if r == flat {
				return
			}
			twins++
			red := tilings[r]
			for i, s := range splits {
				if red[i].Outer != s.Outer || red[i].Inner > s.Inner {
					t.Fatalf("%s tiling %d rank %d: split %+v reduced to %+v", w.e.Name, flat, i, s, red[i])
				}
			}
			// The reduced tiling is itself reduced.
			var rd []int
			en.VisitTilings(r, r+1, func(_ int64, d []int, _ []shape.Split) { rd = append(rd, d...) })
			if en.ReducedIndex(r, rd) != r {
				t.Fatalf("%s tiling %d: reduced tiling %d is not reduced", w.e.Name, flat, r)
			}
		})
		if twins == 0 {
			t.Fatalf("%s: no twin tilings", w.e.Name)
		}
	}
}
