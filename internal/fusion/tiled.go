package fusion

import (
	"context"
	"fmt"

	"repro/internal/pareto"
	"repro/internal/shape"
	"repro/internal/traverse"
)

// TiledFusion derives the sequential tiled-fusion bound for a chain of at
// least two ops under the FFMT constraints of Fig. 16/17:
//
//   - The chain is traversed M1 = M/M0 times over blocks of M0 rows.
//   - Op 0 follows FFMT-TiledKN: its output row may be produced in N2(0)
//     sub-partitions, re-iterating ops 0 and 1 N2(0) times per block and
//     re-reading op 0's input N2(0) times (Access_I,0 = N2(0)*M*K(0)).
//   - Middle ops follow FFMT-Full: they consume and produce complete rows.
//   - The last op may follow FFMT-TiledN, producing its output row in
//     sub-partitions (no access penalty; the output goes to the backing
//     store anyway).
//   - Weights are either streamed once per traversal
//     (Access_W = max(M1, instances) * WInst) or held resident
//     (Access_W = total weight size; BufReq grows by the resident slice).
//
// The fused mapspace — M0, N2(0), the last op's output tiling, and the
// subset of weight-resident layers — is enumerated exhaustively and the
// Pareto frontier returned (Sec. V-E).
func TiledFusion(c *Chain) (*pareto.Curve, error) {
	curve, _, err := TiledFusionStats(c, 0)
	return curve, err
}

// TiledFusionStats is TiledFusion with an explicit worker count (<= 0
// means GOMAXPROCS) and traversal statistics. The fused template space —
// (M0, N2(0), weight-residency subset) triples — is flattened to one
// index range and chunked across workers (see internal/traverse), so the
// sweep scales with cores and the curve is byte-identical for every
// worker count.
func TiledFusionStats(c *Chain, workers int) (*pareto.Curve, traverse.Stats, error) {
	space, err := TiledFusionSpace(c)
	if err != nil {
		return nil, traverse.Stats{}, err
	}
	return TiledFusionRange(context.Background(), c, 0, space, workers)
}

// tiledSpace captures the flattened FFMT template enumeration of a chain:
// flat index idx decodes (innermost first) into a residency subset, an
// N2(0) output-tiling factor and an M0 block height.
type tiledSpace struct {
	m0Options, n2Options, lastTileOptions []int64
	subsets                               int64
}

func newTiledSpace(c *Chain) (tiledSpace, error) {
	if err := c.Validate(); err != nil {
		return tiledSpace{}, err
	}
	if len(c.Ops) < 2 {
		return tiledSpace{}, fmt.Errorf("fusion: TiledFusion needs >= 2 ops, chain %s has %d", c.Name, len(c.Ops))
	}
	e0 := &c.Ops[0]
	last := len(c.Ops) - 1
	sp := tiledSpace{
		m0Options: shape.Divisors(c.M),
		n2Options: shape.Divisors(e0.OutW),
		subsets:   int64(1) << len(c.Ops),
	}
	if e0.NoOutputTiling {
		sp.n2Options = []int64{1}
	}
	sp.lastTileOptions = shape.Divisors(c.Ops[last].OutW)
	if c.Ops[last].NoOutputTiling {
		sp.lastTileOptions = []int64{1}
	}
	return sp, nil
}

func (sp tiledSpace) items() int64 {
	return int64(len(sp.m0Options)) * int64(len(sp.n2Options)) * sp.subsets
}

// TiledFusionSpace returns the size of the flat FFMT template index space
// TiledFusion sweeps for c — the [0, Space) range that TiledFusionRange
// slices and a cross-process shard plan (internal/shard) divides.
func TiledFusionSpace(c *Chain) (int64, error) {
	sp, err := newTiledSpace(c)
	if err != nil {
		return 0, err
	}
	return sp.items(), nil
}

// TiledFusionRange derives the partial tiled-fusion frontier over the
// global template indices [lo, hi) — one shard's (or one checkpoint
// block's) share of the sweep. Deriving a disjoint cover of
// [0, TiledFusionSpace(c)) and merging the partial curves with
// pareto.Union reproduces TiledFusionStats' curve byte-for-byte; the
// annotations are already set on every partial.
//
// Cancelling ctx aborts the sweep within about one worker chunk and
// returns the context's error with no curve.
func TiledFusionRange(ctx context.Context, c *Chain, lo, hi int64, workers int) (*pareto.Curve, traverse.Stats, error) {
	sp, err := newTiledSpace(c)
	if err != nil {
		return nil, traverse.Stats{}, err
	}
	if lo < 0 || hi < lo || hi > sp.items() {
		return nil, traverse.Stats{}, fmt.Errorf("fusion: TiledFusionRange [%d, %d) outside [0, %d)", lo, hi, sp.items())
	}
	curve, ts, err := traverse.FrontierRange(ctx, lo, hi, workers, func() traverse.ChunkFunc {
		return func(lo, hi int64, b *pareto.Builder) int64 {
			var count, m0, n2, io, cands int64
			group := int64(-1)
			for idx := lo; idx < hi; idx++ {
				// The residency subset is the fastest digit, so the
				// (M0, N2(0)) I/O term holds until idx / subsets moves.
				if g := idx / sp.subsets; g != group {
					group = g
					n2 = sp.n2Options[g%int64(len(sp.n2Options))]
					m0 = sp.m0Options[g/int64(len(sp.n2Options))]
					io, cands = templateIO(c, m0, n2, sp.lastTileOptions)
				}
				count += evalTemplate(c, b, m0, n2, int(idx%sp.subsets), io, cands)
			}
			return count
		}
	})
	if err != nil {
		return nil, ts, err
	}
	curve.AlgoMinBytes = c.FusedAlgoMinBytes()
	curve.TotalOperandBytes = c.UnfusedAlgoMinBytes()
	return curve, ts, nil
}

// templateIO returns the smallest InputOutputBuf peak (in elements) among
// the candidates of an (M0, N2(0)) template, and how many candidates
// there are. Every residency subset of the template shares both.
//
// Mode A: the last op accumulates its full output row.
//
// Mode B: FFMT-TiledN on the last op, one candidate per output tiling
// factor above 1. It needs the full input row resident, which for a
// two-op chain conflicts with op 0's output tiling unless N2(0) == 1.
func templateIO(c *Chain, m0, n2 int64, lastTileOptions []int64) (io, cands int64) {
	last := len(c.Ops) - 1
	io = ioPeak(c, m0, n2, c.Ops[last].OutW)
	cands = 1
	if last >= 2 || n2 == 1 {
		for _, lt := range lastTileOptions {
			if lt == 1 {
				continue // identical to mode A
			}
			io = min(io, ioPeak(c, m0, n2, c.Ops[last].OutW/lt))
			cands++
		}
	}
	return io, cands
}

// evalTemplate evaluates one (M0, N2(0), residency subset) template point
// and returns the number of mode-A and mode-B candidates it covers; io
// and cands come from templateIO. All candidates of a template share one
// access count and differ only in buffer, so only the one with the
// smallest buffer can reach the frontier: it is the single point added
// to b.
func evalTemplate(c *Chain, b *pareto.Builder, m0, n2 int64, f int, io, cands int64) int64 {
	e0 := &c.Ops[0]
	last := len(c.Ops) - 1
	m1 := c.M / m0

	acc, wbuf, feasibleW := weightTerms(c, m0, m1, f)
	if !feasibleW {
		return 0
	}
	acc += shape.Product(n2, c.M, e0.InW)       // Access_I,0
	acc += shape.Product(c.M, c.Ops[last].OutW) // Access_O,E-1
	if e0.HaloRows > 0 && m1 > 1 {
		// Sliding-window halo rows of the raw input are re-read once per
		// additional traversal.
		acc += shape.Product(n2, m1-1, e0.HaloRows, e0.InW)
	}
	b.Add((io+wbuf)*c.ElementSize, acc*c.ElementSize)
	return cands
}

// weightTerms returns the weight access count and resident-weight buffer
// footprint (both in elements) for residency subset f, where bit e of f
// marks op e's weights as buffer-resident. feasible is false when a
// resident op's instance slice would not be well defined (never happens
// with perfect factors; kept for safety).
func weightTerms(c *Chain, m0, m1 int64, f int) (acc, buf int64, feasible bool) {
	for e := range c.Ops {
		op := &c.Ops[e]
		inst := c.Instances(e)
		if f&(1<<e) != 0 {
			// Resident: each instance's weights loaded exactly once.
			acc += c.WeightTotalElements(e)
			// Concurrent instances whose rows fall inside one M0 block.
			concurrent := shape.Max(1, shape.CeilDiv(m0, op.RowsPerInst))
			buf += shape.Product(op.WInst, concurrent)
		} else {
			// Streamed once per block traversal; a block spanning
			// multiple instances streams each instance's slice.
			acc += shape.Product(shape.Max(m1, inst), op.WInst)
		}
	}
	return acc, buf, true
}

// ioPeak computes the peak InputOutputBuf requirement in elements across
// the sequential execution of the chain's ops for one M0-row block:
// op 0 streams its input (FFMT-TiledKN with minimal input tile) and holds
// an OutW/N2 output slice; op 1 consumes that slice while accumulating its
// full output row; later middle ops hold full input and output rows; the
// last op's held output is lastOut wide.
func ioPeak(c *Chain, m0, n2, lastOut int64) int64 {
	last := len(c.Ops) - 1
	peak := int64(0)
	for e := range c.Ops {
		op := &c.Ops[e]
		in := op.InW
		switch e {
		case 0:
			in = 1
			if op.HaloRows > 0 {
				// Sliding-window ops must see whole input rows.
				in = op.InW
			}
		case 1:
			in = shape.CeilDiv(op.InW, n2)
		}
		out := op.OutW
		if e == 0 {
			out = shape.CeilDiv(op.OutW, n2)
		}
		if e == last {
			out = lastOut
		}
		need := shape.Product(m0+op.HaloRows, in) + shape.Product(m0, out)
		if need > peak {
			peak = need
		}
	}
	return peak
}

// ReductionFactor evaluates how much a candidate curve improves on a
// baseline at each of the given capacities: baseline accesses divided by
// candidate accesses (Fig. 18b). Infeasible probes are skipped.
type ReductionPoint struct {
	BufferBytes int64
	Factor      float64
}

// ReductionFactors computes baseline/candidate access ratios at the union
// of both curves' breakpoints.
func ReductionFactors(baseline, candidate *pareto.Curve) []ReductionPoint {
	var out []ReductionPoint
	seen := map[int64]bool{}
	for _, src := range []*pareto.Curve{baseline, candidate} {
		for _, p := range src.Points() {
			if seen[p.BufferBytes] {
				continue
			}
			seen[p.BufferBytes] = true
			ba, ok1 := baseline.AccessesAt(p.BufferBytes)
			ca, ok2 := candidate.AccessesAt(p.BufferBytes)
			if !ok1 || !ok2 || ca == 0 {
				continue
			}
			out = append(out, ReductionPoint{
				BufferBytes: p.BufferBytes,
				Factor:      float64(ba) / float64(ca),
			})
		}
	}
	sortReduction(out)
	return out
}

func sortReduction(pts []ReductionPoint) {
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j].BufferBytes < pts[j-1].BufferBytes; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
}
