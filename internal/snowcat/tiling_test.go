package snowcat

import (
	"testing"

	"repro/internal/einsum"
	"repro/internal/mapping"
	"repro/internal/shape"
)

// parityWorkloads cover every projection kind the tiling evaluator
// compiles: identity (GEMM, BMM), strided and dilated affine sums (conv),
// and grouped division (grouped BMM).
func parityWorkloads() []*einsum.Einsum {
	return []*einsum.Einsum{
		einsum.GEMM("gemm", 12, 8, 18),
		einsum.Conv2D("conv-t2", einsum.ConvConfig{P: 4, Q: 6, N: 4, C: 2, R: 3, S: 2, T: 2}),
		einsum.Conv2D("conv-d2", einsum.ConvConfig{P: 4, Q: 4, N: 2, C: 3, R: 3, S: 3, T: 2, D: 2}),
		einsum.BMM("bmm", 4, 8, 6, 4),
		einsum.GroupedBMM("gbmm", 8, 2, 4, 6, 4),
	}
}

// TestTilingEvaluatorMatchesEveryOrder is the parity contract of the
// one-evaluation-per-tiling hot path: for every tiling, the evaluator's
// buffer requirement equals that of each of the tiling's mappings, and its
// access count equals the minimum of the per-mapping reference evaluator
// over every outer-loop order — in all three accounting models.
func TestTilingEvaluatorMatchesEveryOrder(t *testing.T) {
	type variant struct {
		model Model
		enum  func(e *einsum.Einsum) *mapping.Enum
		eval  func(ev *Evaluator) func(*mapping.Mapping) (int64, int64)
	}
	variants := []variant{
		{Perfect, mapping.NewEnum, func(ev *Evaluator) func(*mapping.Mapping) (int64, int64) {
			return ev.EvaluateCompact
		}},
		{SpillCharged, mapping.NewEnum, func(ev *Evaluator) func(*mapping.Mapping) (int64, int64) {
			return ev.EvaluateCompactSpillCharged
		}},
		{Imperfect, func(e *einsum.Einsum) *mapping.Enum { return mapping.NewImperfectEnum(e, 3) },
			func(ev *Evaluator) func(*mapping.Mapping) (int64, int64) { return ev.EvaluateImperfectCompact }},
	}
	for _, e := range parityWorkloads() {
		for _, v := range variants {
			en := v.enum(e)
			te := NewTilingEvaluator(e, v.model)
			ref := v.eval(NewEvaluator(e))
			var mappings int64
			for i := int64(0); i < en.Tilings(); i++ {
				var gotBuf, gotAcc int64
				var orders int64
				en.VisitTilings(i, i+1, func(splits []shape.Split) {
					gotBuf, gotAcc = te.Evaluate(splits)
					orders = mapping.Orders(splits)
				})
				wantAcc := int64(-1)
				var seen int64
				en.Visit(i, i+1, func(m *mapping.Mapping) {
					buf, acc := ref(m)
					if buf != gotBuf {
						t.Fatalf("%s model %d tiling %d: buffer %d, mapping %s needs %d",
							e.Name, v.model, i, gotBuf, m, buf)
					}
					if wantAcc < 0 || acc < wantAcc {
						wantAcc = acc
					}
					seen++
				})
				if gotAcc != wantAcc {
					t.Fatalf("%s model %d tiling %d: minimum access %d, every order gives %d",
						e.Name, v.model, i, gotAcc, wantAcc)
				}
				if orders != seen {
					t.Fatalf("%s tiling %d: Orders %d, Visit expanded %d", e.Name, i, orders, seen)
				}
				mappings += seen
			}
			if v.model == Perfect && mappings != mapping.SpaceSize(e) {
				t.Fatalf("%s: %d mappings covered, SpaceSize %d", e.Name, mappings, mapping.SpaceSize(e))
			}
		}
	}
}

// TestTilingEvaluatorScalesWithElementSize: both axes are element counts
// times the element size, so doubling it doubles both.
func TestTilingEvaluatorScalesWithElementSize(t *testing.T) {
	e := einsum.GroupedBMM("gbmm", 8, 2, 4, 6, 4)
	wide := *e
	wide.ElementSize = 2 * e.ElementSize
	for _, model := range []Model{Perfect, SpillCharged, Imperfect} {
		narrowEv, wideEv := NewTilingEvaluator(e, model), NewTilingEvaluator(&wide, model)
		en := mapping.NewImperfectEnum(e, 2)
		en.VisitTilings(0, en.Tilings(), func(splits []shape.Split) {
			b1, a1 := narrowEv.Evaluate(splits)
			b2, a2 := wideEv.Evaluate(splits)
			if b2 != 2*b1 || a2 != 2*a1 {
				t.Fatalf("model %d %v: (%d, %d) at 2x element size, want (%d, %d)",
					model, splits, b2, a2, 2*b1, 2*a1)
			}
		})
	}
}

func BenchmarkTilingEvaluator(b *testing.B) {
	e := einsum.Conv2D("conv", einsum.ConvConfig{P: 16, Q: 16, N: 64, C: 64, R: 3, S: 3})
	te := NewTilingEvaluator(e, Perfect)
	var splits []shape.Split
	for _, r := range e.Ranks {
		// The middle divisor of each rank: every loop iterates.
		ss := shape.Splits(r.Shape)
		splits = append(splits, ss[(len(ss)-1)/2])
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		te.Evaluate(splits)
	}
}
