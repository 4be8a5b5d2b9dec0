package fusion

import (
	"cmp"
	"context"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/pareto"
	"repro/internal/shape"
)

// refEvalTemplate is the per-candidate template evaluation the tiled sweep
// is checked against: it recomputes the I/O peak of every candidate and
// reports each one to add.
func refEvalTemplate(c *Chain, add func(buf, acc int64), m0, n2 int64, f int, lastTileOptions []int64) int64 {
	e0 := &c.Ops[0]
	last := len(c.Ops) - 1
	m1 := c.M / m0

	acc, wbuf, feasibleW := weightTerms(c, m0, m1, f)
	if !feasibleW {
		return 0
	}
	acc += shape.Product(n2, c.M, e0.InW)
	acc += shape.Product(c.M, c.Ops[last].OutW)
	if e0.HaloRows > 0 && m1 > 1 {
		acc += shape.Product(n2, m1-1, e0.HaloRows, e0.InW)
	}

	// Mode A.
	io := ioPeak(c, m0, n2, c.Ops[last].OutW)
	add((io+wbuf)*c.ElementSize, acc*c.ElementSize)
	count := int64(1)

	// Mode B.
	if last >= 2 || n2 == 1 {
		for _, lt := range lastTileOptions {
			if lt == 1 {
				continue
			}
			ioB := ioPeak(c, m0, n2, c.Ops[last].OutW/lt)
			add((ioB+wbuf)*c.ElementSize, acc*c.ElementSize)
			count++
		}
	}
	return count
}

// refFrontier reduces raw points to the Pareto staircase by a plain sort
// and scan, independent of pareto.Builder.
func refFrontier(pts []pareto.Point) []pareto.Point {
	pts = slices.Clone(pts)
	slices.SortFunc(pts, func(a, b pareto.Point) int {
		if a.BufferBytes != b.BufferBytes {
			return cmp.Compare(a.BufferBytes, b.BufferBytes)
		}
		return cmp.Compare(a.AccessBytes, b.AccessBytes)
	})
	var out []pareto.Point
	for _, p := range pts {
		if len(out) > 0 && p.AccessBytes >= out[len(out)-1].AccessBytes {
			continue
		}
		if len(out) > 0 && p.BufferBytes == out[len(out)-1].BufferBytes {
			out[len(out)-1] = p
			continue
		}
		out = append(out, p)
	}
	return out
}

// refTiledRange derives the tiled-fusion frontier over template indices
// [lo, hi) with refEvalTemplate, serially, and the candidate count.
func refTiledRange(t *testing.T, c *Chain, lo, hi int64) (*pareto.Curve, int64) {
	t.Helper()
	sp, err := newTiledSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	var pts []pareto.Point
	add := func(buf, acc int64) { pts = append(pts, pareto.Point{BufferBytes: buf, AccessBytes: acc}) }
	var count int64
	for idx := lo; idx < hi; idx++ {
		f := int(idx % sp.subsets)
		rest := idx / sp.subsets
		n2 := sp.n2Options[rest%int64(len(sp.n2Options))]
		m0 := sp.m0Options[rest/int64(len(sp.n2Options))]
		count += refEvalTemplate(c, add, m0, n2, f, sp.lastTileOptions)
	}
	cv := pareto.FromPoints(refFrontier(pts))
	cv.AlgoMinBytes = c.FusedAlgoMinBytes()
	cv.TotalOperandBytes = c.UnfusedAlgoMinBytes()
	return cv, count
}

// refBestSegmentation is BestSegmentation over reference-derived fused
// sub-chain curves.
func refBestSegmentation(t *testing.T, c *Chain, perOp []*pareto.Curve) *pareto.Curve {
	t.Helper()
	n := len(c.Ops)
	var curves []*pareto.Curve
	for mask := int64(0); mask < int64(1)<<(n-1); mask++ {
		var parts []*pareto.Curve
		for _, sp := range SegmentationAt(n, mask).Segments(n) {
			if sp[1]-sp[0] == 1 {
				parts = append(parts, perOp[sp[0]])
				continue
			}
			sub := c.Sub(sp[0], sp[1])
			space, err := TiledFusionSpace(sub)
			if err != nil {
				t.Fatal(err)
			}
			cv, _ := refTiledRange(t, sub, 0, space)
			parts = append(parts, cv)
		}
		curves = append(curves, pareto.Sum(parts...))
	}
	best := pareto.MergeMin(curves...)
	best.AlgoMinBytes = c.FusedAlgoMinBytes()
	best.TotalOperandBytes = c.UnfusedAlgoMinBytes()
	return best
}

func curveJSON(t *testing.T, c *pareto.Curve) string {
	t.Helper()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// parityChains are the chain structures the reference parity covers.
func parityChains() []*Chain {
	// The GPT-3 six-Einsum chain (Fig. 21) scaled down: batch 1,
	// sequence 64, 32 heads of width 4, model width 128, hidden 512.
	const seq, heads, f, d, hidden = 64, 32, 4, 128, 512
	qk := AttentionQKOp("bmm_QK", 1, seq, heads, f)
	qk.NoOutputTiling = true
	fp := GEMMOp("Final_proj", seq, d, d)
	fp.NoOutputTiling = true
	gpt := MustChain("gpt3-scaled", seq,
		GEMMOp("Q_proj", seq, d, d),
		qk,
		AttentionQKVOp("bmm_QKV", 1, seq, heads, f),
		fp,
		GEMMOp("mm_0", seq, d, hidden),
		GEMMOp("mm_1", seq, hidden, d),
	)

	cfg := einsum.ConvConfig{P: 24, Q: 12, N: 16, C: 16, R: 3, S: 3}
	conv := MustChain("conv3", 24,
		ConvOp("conv_a", cfg), ConvOp("conv_b", cfg), ConvOp("conv_c", cfg))

	firstNoTile := MustChain("first-untiled", 48,
		GEMMOp("g0", 48, 16, 24), GEMMOp("g1", 48, 24, 32), GEMMOp("g2", 48, 32, 12))
	firstNoTile.Ops[0].NoOutputTiling = true
	lastNoTile := MustChain("last-untiled", 48,
		GEMMOp("g0", 48, 16, 24), GEMMOp("g1", 48, 24, 32), GEMMOp("g2", 48, 32, 12))
	lastNoTile.Ops[2].NoOutputTiling = true

	return []*Chain{
		gpt,
		conv,
		convChain(),
		MustChain("two", 36, GEMMOp("g0", 36, 12, 24), GEMMOp("g1", 36, 24, 20)),
		firstNoTile,
		lastNoTile,
		fourOpChain(),
	}
}

// TestTiledFusionRangeMatchesReference: over seeded random [lo, hi)
// windows — many of them splitting an (M0, N2) group — and 1–3 workers,
// TiledFusionRange yields the reference's curve byte for byte and the
// same candidate count.
func TestTiledFusionRangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, c := range parityChains() {
		name := c.Name
		sp, err := newTiledSpace(c)
		if err != nil {
			t.Fatal(err)
		}
		space := sp.items()
		windows := [][2]int64{{0, space}}
		for i := 0; i < 6; i++ {
			lo := rng.Int63n(space)
			hi := lo + 1 + rng.Int63n(space-lo)
			windows = append(windows, [2]int64{lo, hi})
		}
		// One window inside a single (M0, N2) group, cut on both sides.
		if sp.subsets > 2 {
			g := rng.Int63n(space / sp.subsets)
			windows = append(windows, [2]int64{g*sp.subsets + 1, (g+1)*sp.subsets - 1})
		}
		for _, w := range windows {
			want, wantCount := refTiledRange(t, c, w[0], w[1])
			for workers := 1; workers <= 3; workers++ {
				got, st, err := TiledFusionRange(context.Background(), c, w[0], w[1], workers)
				if err != nil {
					t.Fatal(err)
				}
				if g, r := curveJSON(t, got), curveJSON(t, want); g != r {
					t.Fatalf("%s [%d, %d) workers %d: curve differs from reference\n got %s\nwant %s",
						name, w[0], w[1], workers, g, r)
				}
				if st.Evaluated != wantCount {
					t.Fatalf("%s [%d, %d) workers %d: evaluated %d, reference %d",
						name, w[0], w[1], workers, st.Evaluated, wantCount)
				}
			}
		}
	}
}

// TestBestSegmentationMatchesReference: the best-segmentation curve at 1
// and 2 workers equals the one built from reference fused curves.
func TestBestSegmentationMatchesReference(t *testing.T) {
	for _, c := range parityChains() {
		name := c.Name
		perOp := c.PerOpCurves(bound.Options{Workers: 1})
		want := curveJSON(t, refBestSegmentation(t, c, perOp))
		for workers := 1; workers <= 2; workers++ {
			got, st, err := BestSegmentationStats(c, perOp, workers)
			if err != nil {
				t.Fatal(err)
			}
			if g := curveJSON(t, got); g != want {
				t.Fatalf("%s workers %d: best segmentation differs from reference\n got %s\nwant %s",
					name, workers, g, want)
			}
			if n := int64(1) << (len(c.Ops) - 1); st.Evaluated != n {
				t.Fatalf("%s workers %d: evaluated %d segmentations, want %d", name, workers, st.Evaluated, n)
			}
		}
	}
}
