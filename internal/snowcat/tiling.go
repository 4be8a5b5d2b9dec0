package snowcat

import (
	"math"

	"repro/internal/einsum"
	"repro/internal/nest"
	"repro/internal/shape"
)

// Model selects the per-tensor traffic rule of a TilingEvaluator; each
// matches one of Evaluator's per-mapping entry points.
type Model int

const (
	// Perfect charges fp·iters per tensor (EvaluateCompact).
	Perfect Model = iota
	// SpillCharged adds the reload of spilled output partials
	// (EvaluateCompactSpillCharged).
	SpillCharged
	// Imperfect charges max(size, ceil(fpEff·iters)) per tensor
	// (EvaluateImperfectCompact).
	Imperfect
)

// TilingEvaluator evaluates a whole tiling at once: its buffer requirement
// and its exact minimum access count over every outer-loop order. In the
// Snowcat model the buffer requirement depends only on the tiling, so of
// all the tiling's mappings only a minimum-access order can reach the
// Pareto frontier; one evaluation per tiling replaces k! (k = loops with
// outer bound > 1) while leaving every curve byte-identical. The minimum
// comes from nest.OrderSearch over the tiling's iterating loops, with the
// same per-tensor arithmetic as the Evaluator entry point its Model names.
//
// It works on dense rank indices (a tiling is one shape.Split per rank, in
// Einsum.Ranks order) and allocates nothing per tiling. Not safe for
// concurrent use; parallel traversals build one per worker.
type TilingEvaluator struct {
	model   Model
	es      int64
	shapes  []int64
	tensors []einsum.DenseTensor
	search  nest.OrderSearch
	cost    nest.Cost

	// Per-tiling scratch.
	splits []shape.Split
	inner  []int64      // inner tile of each rank
	loops  nest.LoopSet // the iterating outer loops
	fp     []int64
	fpEff  []float64
}

// NewTilingEvaluator compiles e for model. The Einsum must be valid.
func NewTilingEvaluator(e *einsum.Einsum, model Model) *TilingEvaluator {
	te := &TilingEvaluator{
		model:   model,
		es:      e.ElementSize,
		tensors: e.Dense(),
		inner:   make([]int64, len(e.Ranks)),
	}
	for _, r := range e.Ranks {
		te.shapes = append(te.shapes, r.Shape)
	}
	te.fp = make([]int64, len(te.tensors))
	te.fpEff = make([]float64, len(te.tensors))
	te.cost = te.tensorCost
	return te
}

// Evaluate returns the buffer requirement of the tiling splits (one split
// per rank) and the least access count of any of its outer-loop orders,
// both in bytes. splits is read only during the call.
func (te *TilingEvaluator) Evaluate(splits []shape.Split) (bufBytes, accessBytes int64) {
	te.splits = splits
	te.loops.Reset()
	for i, s := range splits {
		te.inner[i] = s.Inner
		te.loops.Add(i, s.Outer)
	}
	te.loops.Relevance(te.tensors)
	var buf int64
	for ti := range te.tensors {
		t := &te.tensors[ti]
		te.fp[ti] = t.Footprint(te.inner) // the inner tile sizes the buffer
		buf += te.fp[ti]
		if te.model == Imperfect {
			te.fpEff[ti] = te.effectiveFootprint(t)
		}
	}
	acc, _ := te.search.MinLex(te.loops.Bounds, te.loops.Rel, te.cost)
	return buf * te.es, acc * te.es
}

// tensorCost is the nest.Cost of one tensor: its transfer count under the
// product rule (with the grouped-rank innermost factor of iterations)
// priced by the Model's rule.
func (te *TilingEvaluator) tensorCost(ti, r int, outside int64) (int64, int64) {
	t := &te.tensors[ti]
	iters := int64(1)
	if r >= 0 {
		rank := te.loops.Ranks[r]
		s := te.splits[rank]
		factor := s.Outer
		if gd := t.GroupDiv[rank]; gd > 1 {
			factor = shape.Max(1, shape.CeilDiv(s.Outer*s.Inner, shape.Max(s.Inner, gd)))
		}
		iters = outside * factor
	}
	switch te.model {
	case SpillCharged:
		elems := te.fp[ti] * iters
		if t.Output && elems > t.Size {
			elems += elems - t.Size // reload of spilled partials
		}
		return elems, 0
	case Imperfect:
		elems := int64(math.Ceil(te.fpEff[ti] * float64(iters)))
		if elems < t.Size {
			elems = t.Size
		}
		return elems, 0
	default:
		return te.fp[ti] * iters, 0
	}
}

// effectiveFootprint is Evaluator.effectiveFootprint on dense indices, with
// the same floating-point operations in the same order.
func (te *TilingEvaluator) effectiveFootprint(t *einsum.DenseTensor) float64 {
	fp := 1.0
	for i := range t.Dims {
		d := &t.Dims[i]
		var ext float64
		if d.GroupDiv > 1 {
			ext = te.effTile(d.Terms[0].Rank) / float64(d.GroupDiv)
			if ext < 1 {
				ext = 1
			}
		} else {
			ext = 1
			for _, term := range d.Terms {
				ext += float64(term.Coeff) * (te.effTile(term.Rank) - 1)
			}
		}
		if max := float64(d.Full); ext > max {
			ext = max
		}
		fp *= ext
	}
	return fp
}

// effTile is Evaluator.effTile on a dense rank index.
func (te *TilingEvaluator) effTile(rank int) float64 {
	s := te.splits[rank]
	eff := float64(te.shapes[rank]) / float64(s.Outer)
	if eff > float64(s.Inner) {
		eff = float64(s.Inner)
	}
	if eff < 1 {
		eff = 1
	}
	return eff
}
