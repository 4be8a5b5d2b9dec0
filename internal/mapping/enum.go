package mapping

import (
	"repro/internal/einsum"
	"repro/internal/shape"
)

// Enum is an index-addressable view of a Snowcat mapspace. The tiling
// combinations — one split choice per rank — form a mixed-radix space of
// Tilings() flat indices; each index expands into its distinct outer-loop
// permutations at Visit time. Flat addressing is what lets a parallel
// traversal chunk the space evenly across workers instead of sharding by
// the divisor structure of one rank (which capped utilization at the
// first rank's split count, e.g. two workers for a prime leading rank).
type Enum struct {
	rankNames []string
	options   [][]shape.Split

	// twins is set when some rank has two options with one outer count.
	// A rank's options list ascending inner tiles with non-increasing
	// outer counts, so such options are adjacent and the first of a run
	// has the smallest inner tile. Only imperfect enumerations have them:
	// distinct divisors give distinct outer counts.
	twins bool
}

// NewEnum builds the perfect-factor enumeration of e's mapspace: every
// rank's split options are its two-level perfect factorizations.
func NewEnum(e *einsum.Einsum) *Enum {
	en := &Enum{}
	for _, r := range e.Ranks {
		en.rankNames = append(en.rankNames, r.Name)
		en.options = append(en.options, shape.Splits(r.Shape))
	}
	return en
}

// NewImperfectEnum builds the widened imperfect-factor enumeration: each
// rank's inner-tile candidates are its divisors plus up to extra geometric
// samples, with outer = ceil(shape/inner) (partial boundary tiles).
func NewImperfectEnum(e *einsum.Einsum, extra int) *Enum {
	en := &Enum{}
	for _, r := range e.Ranks {
		cands := ImperfectCandidates(r.Shape, extra)
		sp := make([]shape.Split, len(cands))
		for j, c := range cands {
			sp[j] = shape.Split{Inner: c, Outer: shape.CeilDiv(r.Shape, c)}
			en.twins = en.twins || (j > 0 && sp[j].Outer == sp[j-1].Outer)
		}
		en.rankNames = append(en.rankNames, r.Name)
		en.options = append(en.options, sp)
	}
	return en
}

// ReducedIndex returns the flat index of the reduced form of the tiling at
// flat whose per-rank option indices are digits (as VisitTilings passes
// them): the tiling with each rank's option replaced by the first option
// of the same outer count. The reduced tiling has the same outer loops and
// an inner tile no larger in any rank. ReducedIndex returns flat itself
// when the tiling is already reduced and a smaller index otherwise.
func (en *Enum) ReducedIndex(flat int64, digits []int) int64 {
	if !en.twins {
		return flat
	}
	stride := int64(1)
	for i := len(digits) - 1; i >= 0; i-- {
		opts := en.options[i]
		for d := digits[i]; d > 0 && opts[d-1].Outer == opts[d].Outer; d-- {
			flat -= stride
		}
		stride *= int64(len(opts))
	}
	return flat
}

// Tilings returns the number of flat indices (tiling combinations; outer
// loop orders are expanded per tiling by Visit).
func (en *Enum) Tilings() int64 {
	if len(en.options) == 0 {
		return 0
	}
	n := int64(1)
	for _, opts := range en.options {
		n *= int64(len(opts))
	}
	return n
}

// Visit enumerates the tilings with flat index in [lo, hi), calling visit
// for every mapping (tiling x distinct outer order). The last rank's index
// varies fastest, so Visit(0, Tilings()) matches Space's order exactly.
// The Mapping value is reused between calls; visitors that retain it must
// Clone it. Visit is the exhaustive per-order reference; derivations that
// only need each tiling's best order use VisitTilings.
func (en *Enum) Visit(lo, hi int64, visit func(*Mapping)) {
	m := &Mapping{Splits: make(map[string]shape.Split, len(en.rankNames))}
	en.VisitTilings(lo, hi, func(_ int64, _ []int, splits []shape.Split) {
		for i, r := range en.rankNames {
			m.Splits[r] = splits[i]
		}
		emitPermutations(m, en.rankNames, visit)
	})
}

// VisitTilings enumerates the tilings with flat index in [lo, hi) in
// Visit's order, calling visit once per tiling with its flat index, its
// option index per rank (digits) and its split per rank, both in
// Einsum.Ranks order. The slices are reused between calls and must not be
// modified; visitors that retain them must copy them.
func (en *Enum) VisitTilings(lo, hi int64, visit func(flat int64, digits []int, splits []shape.Split)) {
	n := len(en.rankNames)
	if n == 0 || lo >= hi {
		return
	}
	// Decode lo into mixed-radix digits, then advance odometer-style.
	idx := make([]int, n)
	rem := lo
	for i := n - 1; i >= 0; i-- {
		k := int64(len(en.options[i]))
		idx[i] = int(rem % k)
		rem /= k
	}
	splits := make([]shape.Split, n)
	for flat := lo; flat < hi; flat++ {
		for i := range splits {
			splits[i] = en.options[i][idx[i]]
		}
		visit(flat, idx, splits)
		for i := n - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(en.options[i]) {
				break
			}
			idx[i] = 0
		}
	}
}
