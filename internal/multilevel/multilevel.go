// Package multilevel derives *jointly achievable* bounds for a
// three-level Snowcat (L1 buffer, L2 buffer, backing store), implementing
// the tightening of multi-level bounds the paper lists as future work.
//
// Probing the two-level ski-slope curve at each level's capacity (Fig. 7)
// yields valid per-link bounds, but the Pareto-optimal mappings need not
// compose across levels (Sec. III-B.1). This package enumerates the full
// three-level mapspace — every rank split into an L1 tile, an L2 factor
// and outer loops, with both loop orders permuted — so each point is one
// mapping that achieves its DRAM and L2 traffic simultaneously. The DRAM
// curve is therefore at least as high as the two-level curve (it carries
// the extra inner-level constraint), and the gap measures the composed
// probe's optimism.
//
// The traversal runs on the shared engine (internal/traverse): the
// three-split combinations form a flat index space chunked across workers;
// per-worker Pareto builders and joint-entry tables are merged after the
// traversal, so the curves and MinL2GivenOptimalDRAM answers are
// byte-identical for every worker count. Transfer counts instantiate the
// shared product rule (internal/nest) on the composite outer+mid nest.
//
// Loop orders are not enumerated. A combination's footprints fix both
// curves' buffer axis, so only its best order pairs can reach a frontier,
// and under the product rule the traffic separates by level: DRAM traffic
// depends on the outer order only, and each tensor's L2 traffic on the
// outer order (when no relevant mid loop iterates) or on the mid order
// alone, scaled by every outer bound. Per combination, nest.OrderSearch
// therefore yields the least DRAM traffic, the least L2 traffic (least
// outer part plus least mid part) and the joint entry
// (lexicographically least (DRAM, outer L2 part), plus the least mid
// part) exactly — one evaluation where the enumeration made (n!)^2, while
// Mappings still counts the (n!)^2 mappings covered.
package multilevel

import (
	"context"
	"fmt"

	"repro/internal/einsum"
	"repro/internal/nest"
	"repro/internal/pareto"
	"repro/internal/shape"
	"repro/internal/traverse"
)

// Options tunes the three-level traversal.
type Options struct {
	// Workers sets the number of parallel evaluation goroutines.
	// Zero (or negative) means GOMAXPROCS. Results are identical for
	// every worker count.
	Workers int
}

// Result bundles the three-level bounds for one L1 capacity.
type Result struct {
	L1CapacityBytes int64

	// DRAM is the frontier of (L2 footprint, DRAM accesses) over
	// mappings whose L1 tiles fit the L1 capacity.
	DRAM *pareto.Curve
	// L2 is the frontier of (L2 footprint, L2->L1 traffic) over the same
	// mappings.
	L2 *pareto.Curve
	// Mappings is the number of three-level mappings covered: (n!)^2
	// order pairs per feasible combination. Stats.Items counts the
	// combinations visited, one evaluation each.
	Mappings int64

	// Stats reports what the traversal did (workers launched, throughput).
	Stats traverse.Stats

	// joint tracks, per L2 footprint, the best DRAM traffic and the best
	// L2 traffic among mappings achieving that DRAM traffic — the data
	// behind MinL2GivenOptimalDRAM.
	joint map[int64]jointEntry
}

type jointEntry struct {
	dram int64
	l2   int64
}

// better reports whether candidate (dram, l2) improves on je under the
// joint criterion: minimal DRAM traffic first, then minimal L2 traffic
// among DRAM-ties. The rule is commutative, so per-worker tables merge to
// the same result in any order.
func (je jointEntry) better(dram, l2 int64) bool {
	return dram < je.dram || (dram == je.dram && l2 < je.l2)
}

// derState is one worker's share of the traversal output.
type derState struct {
	dramB *pareto.Builder
	l2B   *pareto.Builder
	joint map[int64]jointEntry
}

// MaxRanks caps the ranks of a three-level derivation: every combination
// covers (n!)² mappings, which the Mappings count must hold.
const MaxRanks = 8

// Space returns the size of the flat three-split combination space Derive
// walks for e: the product over ranks of their three-split counts. It is
// the [0, Space) range DeriveRange slices and a cross-process shard plan
// (internal/shard) divides.
func Space(e *einsum.Einsum) (int64, error) {
	if err := e.Validate(); err != nil {
		return 0, err
	}
	if len(e.Ranks) > MaxRanks {
		return 0, fmt.Errorf("multilevel: einsum %s has %d ranks, at most %d supported", e.Name, len(e.Ranks), MaxRanks)
	}
	combos := int64(1)
	for _, r := range e.Ranks {
		combos *= int64(len(shape.ThreeSplits(r.Shape)))
	}
	return combos, nil
}

// Derive exhaustively walks the three-level mapspace of e. Only mappings
// whose L1 footprint fits l1CapBytes are kept. Intended for moderate
// shapes: the space grows with the cube of the per-rank three-split
// counts.
func Derive(e *einsum.Einsum, l1CapBytes int64, opts Options) (*Result, error) {
	combos, err := Space(e)
	if err != nil {
		return nil, err
	}
	return DeriveRange(context.Background(), e, l1CapBytes, 0, combos, opts)
}

// DeriveRange walks the global three-split combinations [lo, hi) of e's
// space — one shard's share of the full traversal. Partial Results over a
// disjoint cover of [0, Space(e)) recombine with Merge into the
// byte-identical full-range Result: Pareto union and the joint min-rule
// are both insensitive to how the underlying mappings were partitioned.
//
// Cancelling ctx aborts the traversal within about one worker chunk and
// returns the context's error with no Result.
func DeriveRange(ctx context.Context, e *einsum.Einsum, l1CapBytes int64, lo, hi int64, opts Options) (*Result, error) {
	combosTotal, err := Space(e)
	if err != nil {
		return nil, err
	}
	if l1CapBytes < 1 {
		return nil, fmt.Errorf("multilevel: non-positive L1 capacity %d", l1CapBytes)
	}
	if lo < 0 || hi < lo || hi > combosTotal {
		return nil, fmt.Errorf("multilevel: DeriveRange [%d, %d) outside [0, %d)", lo, hi, combosTotal)
	}

	n := len(e.Ranks)
	options := make([][]shape.ThreeSplit, n)
	for i, r := range e.Ranks {
		options[i] = shape.ThreeSplits(r.Shape)
	}
	combos := hi - lo

	tensors := e.Dense()
	es := e.ElementSize
	// Every combination covers (n!)^2 mappings: an outer and a mid order
	// of all n ranks.
	orders := shape.Factorial(n)
	mappings := orders * orders

	w := traverse.WorkerCount(combos, opts.Workers)
	states := make([]*derState, w)
	stats, terr := traverse.Partition(ctx, combos, w, func(wi int) traverse.RangeFunc {
		st := &derState{
			dramB: pareto.NewBuilder(),
			l2B:   pareto.NewBuilder(),
			joint: map[int64]jointEntry{},
		}
		states[wi] = st

		// Per-worker scratch, reused across the worker's chunks.
		tiles0 := make([]int64, n)
		tiles1 := make([]int64, n)
		idx := make([]int, n)
		fp0 := make([]int64, len(tensors))
		fp1 := make([]int64, len(tensors))
		midIter := make([]bool, len(tensors))
		var outer, mid nest.LoopSet
		var outerAll int64 // product of every outer bound
		var search nest.OrderSearch

		// The three traffic components, each a function of one level's
		// order only. DRAM traffic and the L2 traffic of a tensor with no
		// iterating relevant mid loop follow the outer order; the L2
		// traffic of every other tensor runs through all outer loops and
		// then follows the mid order.
		dramAndA := func(t, r int, outside int64) (int64, int64) {
			iters := outer.Iterations(r, outside)
			a := int64(0)
			if !midIter[t] {
				a = fp0[t] * iters
			}
			return fp1[t] * iters, a
		}
		onlyA := func(t, r int, outside int64) (int64, int64) {
			if midIter[t] {
				return 0, 0
			}
			return fp0[t] * outer.Iterations(r, outside), 0
		}
		onlyB := func(t, r int, outside int64) (int64, int64) {
			if !midIter[t] {
				return 0, 0
			}
			return fp0[t] * outerAll * mid.Iterations(r, outside), 0
		}

		return func(clo, chi int64) int64 {
			// Decode the global start index lo+clo into mixed-radix digits
			// (last rank fastest), then advance odometer-style — the serial
			// enumeration order.
			rem := lo + clo
			for i := n - 1; i >= 0; i-- {
				k := int64(len(options[i]))
				idx[i] = int(rem % k)
				rem /= k
			}
			var count int64
			for flat := clo; flat < chi; flat++ {
				outer.Reset()
				mid.Reset()
				outerAll = 1
				for i := range options {
					ts := options[i][idx[i]]
					tiles0[i] = ts.L0
					tiles1[i] = ts.L0 * ts.L1
					outer.Add(i, ts.L2)
					mid.Add(i, ts.L1)
					outerAll *= ts.L2
				}
				var buf1, buf2 int64
				for i := range tensors {
					t := &tensors[i]
					fp0[i] = t.Footprint(tiles0)
					fp1[i] = t.Footprint(tiles1)
					buf1 += fp0[i]
					buf2 += fp1[i]
				}
				if buf1*es <= l1CapBytes {
					key := buf2 * es
					outer.Relevance(tensors)
					mid.Relevance(tensors)
					for i := range tensors {
						midIter[i] = mid.Rel[i] != 0
					}
					// Over all (outer, mid) order pairs: the least DRAM
					// traffic, the least L2 traffic (min A + min B), and the
					// joint entry lexmin(DRAM, A) + min B.
					dram, jointA := search.MinLex(outer.Bounds, outer.Rel, dramAndA)
					minA, _ := search.MinLex(outer.Bounds, outer.Rel, onlyA)
					minB, _ := search.MinLex(mid.Bounds, mid.Rel, onlyB)
					count += mappings
					st.dramB.Add(key, dram*es)
					st.l2B.Add(key, (minA+minB)*es)
					je, ok := st.joint[key]
					if !ok || je.better(dram*es, (jointA+minB)*es) {
						st.joint[key] = jointEntry{dram: dram * es, l2: (jointA + minB) * es}
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
			return count
		}
	})

	if terr != nil {
		return nil, terr
	}

	// Merge the per-worker frontiers and joint tables. Pareto union and
	// the joint min-rule are both insensitive to merge order, so the
	// result matches a serial traversal exactly.
	res := &Result{L1CapacityBytes: l1CapBytes, joint: map[int64]jointEntry{}, Stats: stats}
	res.Mappings = stats.Evaluated
	dramCurves := make([]*pareto.Curve, 0, len(states))
	l2Curves := make([]*pareto.Curve, 0, len(states))
	for _, st := range states {
		if st == nil {
			continue
		}
		dramCurves = append(dramCurves, st.dramB.Curve())
		l2Curves = append(l2Curves, st.l2B.Curve())
		for key, je := range st.joint {
			if got, ok := res.joint[key]; !ok || got.better(je.dram, je.l2) {
				res.joint[key] = je
			}
		}
	}
	res.DRAM = pareto.Union(dramCurves...)
	res.DRAM.AlgoMinBytes = e.AlgorithmicMinBytes()
	res.DRAM.TotalOperandBytes = e.TotalOperandBytes()
	res.L2 = pareto.Union(l2Curves...)
	res.L2.AlgoMinBytes = e.AlgorithmicMinBytes()
	res.L2.TotalOperandBytes = e.TotalOperandBytes()
	return res, nil
}

// Merge recombines partial Results derived over disjoint slices of one
// workload's space (DeriveRange) into the Result a full-range Derive
// produces: curves are Pareto-unioned, joint tables merged under the
// commutative min-rule, and mapping counts summed. All partials must share
// one L1 capacity — mixing capacities would silently change the feasibility
// filter. Stats are aggregated (Items/Evaluated summed, Elapsed summed as
// total CPU-side derivation time).
func Merge(parts ...*Result) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("multilevel: Merge: no partial results")
	}
	res := &Result{L1CapacityBytes: parts[0].L1CapacityBytes, joint: map[int64]jointEntry{}}
	dramCurves := make([]*pareto.Curve, 0, len(parts))
	l2Curves := make([]*pareto.Curve, 0, len(parts))
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("multilevel: Merge: partial %d is nil", i)
		}
		if p.L1CapacityBytes != res.L1CapacityBytes {
			return nil, fmt.Errorf("multilevel: Merge: partial %d has L1 capacity %d, partial 0 has %d",
				i, p.L1CapacityBytes, res.L1CapacityBytes)
		}
		dramCurves = append(dramCurves, p.DRAM)
		l2Curves = append(l2Curves, p.L2)
		res.Mappings += p.Mappings
		res.Stats.Items += p.Stats.Items
		res.Stats.Evaluated += p.Stats.Evaluated
		res.Stats.Elapsed += p.Stats.Elapsed
		for key, je := range p.joint {
			if got, ok := res.joint[key]; !ok || got.better(je.dram, je.l2) {
				res.joint[key] = je
			}
		}
	}
	res.DRAM = pareto.Union(dramCurves...)
	res.DRAM.AlgoMinBytes = parts[0].DRAM.AlgoMinBytes
	res.DRAM.TotalOperandBytes = parts[0].DRAM.TotalOperandBytes
	res.L2 = pareto.Union(l2Curves...)
	res.L2.AlgoMinBytes = parts[0].L2.AlgoMinBytes
	res.L2.TotalOperandBytes = parts[0].L2.TotalOperandBytes
	return res, nil
}

// MinL2GivenOptimalDRAM returns, for an L2 capacity, the smallest L2->L1
// traffic achievable by a mapping that simultaneously attains the minimal
// DRAM traffic at that capacity. Because the loop order that minimizes
// DRAM traffic is generally not the one that minimizes L2 traffic, this
// value can exceed the unconstrained L2 bound — exactly the
// non-composability of per-level optima that makes the Fig. 7 probe a
// valid but potentially loose multi-level bound.
func (r *Result) MinL2GivenOptimalDRAM(l2CapBytes int64) (l2, dram int64, ok bool) {
	dram = -1
	for buf, je := range r.joint {
		if buf > l2CapBytes {
			continue
		}
		if dram < 0 || je.dram < dram {
			dram = je.dram
			l2 = je.l2
		} else if je.dram == dram && je.l2 < l2 {
			l2 = je.l2
		}
	}
	if dram < 0 {
		return 0, 0, false
	}
	return l2, dram, true
}

// CompositionGap reports, per capacity, the ratio between the L2 traffic
// of a DRAM-optimal mapping and the unconstrained L2 traffic bound
// (>= 1; > 1 means no single mapping attains both per-level optima).
type GapPoint struct {
	L2CapacityBytes int64
	FreeL2          int64 // unconstrained L2 traffic bound
	JointL2         int64 // best L2 traffic among DRAM-optimal mappings
	Ratio           float64
	Feasible        bool
}

// CompositionGap evaluates the gap at each capacity.
func (r *Result) CompositionGap(l2Caps []int64) []GapPoint {
	out := make([]GapPoint, 0, len(l2Caps))
	for _, c := range l2Caps {
		gp := GapPoint{L2CapacityBytes: c}
		free, ok1 := r.L2.AccessesAt(c)
		joint, _, ok2 := r.MinL2GivenOptimalDRAM(c)
		if ok1 && ok2 && free > 0 {
			gp.FreeL2 = free
			gp.JointL2 = joint
			gp.Ratio = float64(joint) / float64(free)
			gp.Feasible = true
		}
		out = append(out, gp)
	}
	return out
}
