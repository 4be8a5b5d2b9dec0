package pareto

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func buildCurve(pts ...Point) *Curve { return FromPoints(pts) }

func TestFrontierPruning(t *testing.T) {
	c := buildCurve(
		Point{100, 1000},
		Point{100, 900},  // dominates previous at same buffer
		Point{200, 950},  // dominated (more buffer, more accesses)
		Point{200, 800},  // kept
		Point{300, 800},  // dominated (same accesses, more buffer)
		Point{400, 500},  // kept
		Point{50, 2000},  // kept (smallest buffer)
		Point{500, 5000}, // dominated
	)
	want := []Point{{50, 2000}, {100, 900}, {200, 800}, {400, 500}}
	got := c.Points()
	if len(got) != len(want) {
		t.Fatalf("frontier = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frontier = %v, want %v", got, want)
		}
	}
}

func TestAccessesAt(t *testing.T) {
	c := buildCurve(Point{100, 1000}, Point{200, 500}, Point{400, 100})
	cases := []struct {
		buf  int64
		want int64
		ok   bool
	}{
		{50, 0, false},
		{100, 1000, true},
		{150, 1000, true},
		{200, 500, true},
		{399, 500, true},
		{400, 100, true},
		{1 << 40, 100, true},
	}
	for _, cs := range cases {
		got, ok := c.AccessesAt(cs.buf)
		if ok != cs.ok || got != cs.want {
			t.Fatalf("AccessesAt(%d) = (%d,%v), want (%d,%v)", cs.buf, got, ok, cs.want, cs.ok)
		}
	}
}

func TestBufferFor(t *testing.T) {
	c := buildCurve(Point{100, 1000}, Point{200, 500}, Point{400, 100})
	if b, ok := c.BufferFor(500); !ok || b != 200 {
		t.Fatalf("BufferFor(500) = (%d,%v), want (200,true)", b, ok)
	}
	if b, ok := c.BufferFor(499); !ok || b != 400 {
		t.Fatalf("BufferFor(499) = (%d,%v), want (400,true)", b, ok)
	}
	if _, ok := c.BufferFor(99); ok {
		t.Fatal("BufferFor(99) should be infeasible")
	}
	if b, ok := c.BufferFor(1 << 40); !ok || b != 100 {
		t.Fatalf("BufferFor(huge) = (%d,%v), want (100,true)", b, ok)
	}
}

func TestExtremes(t *testing.T) {
	c := buildCurve(Point{100, 1000}, Point{400, 100})
	if c.MinAccessBytes() != 100 {
		t.Fatalf("MinAccessBytes = %d", c.MinAccessBytes())
	}
	if c.MaxEffectualBufferBytes() != 400 {
		t.Fatalf("MaxEffectualBufferBytes = %d", c.MaxEffectualBufferBytes())
	}
	if c.MinBufferBytes() != 100 {
		t.Fatalf("MinBufferBytes = %d", c.MinBufferBytes())
	}
	empty := &Curve{}
	if !empty.Empty() || empty.MinAccessBytes() != 0 || empty.MaxEffectualBufferBytes() != 0 {
		t.Fatal("empty-curve extremes should be zero")
	}
}

func TestGaps(t *testing.T) {
	c := buildCurve(Point{100, 1000}, Point{400, 100})
	c.AlgoMinBytes = 100
	c.TotalOperandBytes = 800
	if g, ok := c.Gap0(100); !ok || g != 10 {
		t.Fatalf("Gap0(100) = (%f,%v), want (10,true)", g, ok)
	}
	if g, ok := c.Gap0(400); !ok || g != 1 {
		t.Fatalf("Gap0(400) = (%f,%v)", g, ok)
	}
	if _, ok := c.Gap0(1); ok {
		t.Fatal("Gap0 below min buffer should be infeasible")
	}
	if g, ok := c.Gap1(); !ok || g != 0.5 {
		t.Fatalf("Gap1 = (%f,%v), want (0.5,true)", g, ok)
	}
	unannotated := buildCurve(Point{1, 1})
	if _, ok := unannotated.Gap0(10); ok {
		t.Fatal("Gap0 without annotation should be unavailable")
	}
	if _, ok := unannotated.Gap1(); ok {
		t.Fatal("Gap1 without annotation should be unavailable")
	}
}

func TestSum(t *testing.T) {
	a := buildCurve(Point{100, 1000}, Point{200, 400})
	b := buildCurve(Point{150, 600}, Point{300, 200})
	s := Sum(a, b)
	// Feasible from 150 (both defined): at 150: 1000+600; 200: 400+600;
	// 300: 400+200.
	cases := []struct{ buf, want int64 }{
		{150, 1600}, {200, 1000}, {300, 600},
	}
	for _, cs := range cases {
		got, ok := s.AccessesAt(cs.buf)
		if !ok || got != cs.want {
			t.Fatalf("Sum.AccessesAt(%d) = (%d,%v), want %d", cs.buf, got, ok, cs.want)
		}
	}
	if _, ok := s.AccessesAt(120); ok {
		t.Fatal("Sum should be infeasible where a component is infeasible")
	}
}

func TestMergeMin(t *testing.T) {
	a := buildCurve(Point{100, 1000}, Point{300, 900})
	b := buildCurve(Point{200, 500})
	m := MergeMin(a, b)
	if got, ok := m.AccessesAt(100); !ok || got != 1000 {
		t.Fatalf("MergeMin at 100 = (%d,%v)", got, ok)
	}
	if got, ok := m.AccessesAt(250); !ok || got != 500 {
		t.Fatalf("MergeMin at 250 = (%d,%v)", got, ok)
	}
	if got, ok := m.AccessesAt(1 << 30); !ok || got != 500 {
		t.Fatalf("MergeMin at large = (%d,%v)", got, ok)
	}
}

func TestScaleShiftAdd(t *testing.T) {
	c := buildCurve(Point{100, 1000}, Point{400, 100})
	c.AlgoMinBytes = 10
	s := c.ScaleAccesses(3)
	if got, _ := s.AccessesAt(100); got != 3000 {
		t.Fatalf("ScaleAccesses: got %d", got)
	}
	if s.AlgoMinBytes != 30 {
		t.Fatalf("ScaleAccesses annotation: %d", s.AlgoMinBytes)
	}
	sh := c.ShiftBuffer(50)
	if _, ok := sh.AccessesAt(100); ok {
		t.Fatal("ShiftBuffer: old breakpoint should now be infeasible")
	}
	if got, _ := sh.AccessesAt(150); got != 1000 {
		t.Fatalf("ShiftBuffer: got %d", got)
	}
	ad := c.AddAccesses(7)
	if got, _ := ad.AccessesAt(400); got != 107 {
		t.Fatalf("AddAccesses: got %d", got)
	}
	// Originals untouched.
	if got, _ := c.AccessesAt(100); got != 1000 {
		t.Fatal("ScaleAccesses/ShiftBuffer mutated the source curve")
	}
}

func TestBuilderCompaction(t *testing.T) {
	b := NewBuilder()
	rng := rand.New(rand.NewSource(42))
	type raw struct{ buf, acc int64 }
	var all []raw
	for i := 0; i < 100000; i++ {
		p := raw{rng.Int63n(1 << 20), rng.Int63n(1 << 30)}
		all = append(all, p)
		b.Add(p.buf, p.acc)
	}
	c := b.Curve()
	// Frontier invariants.
	pts := c.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].BufferBytes <= pts[i-1].BufferBytes ||
			pts[i].AccessBytes >= pts[i-1].AccessBytes {
			t.Fatalf("frontier violated at %d: %v %v", i, pts[i-1], pts[i])
		}
	}
	// Every raw point is dominated by (or on) the curve.
	for _, p := range all {
		acc, ok := c.AccessesAt(p.buf)
		if !ok || acc > p.acc {
			t.Fatalf("raw point (%d,%d) beats the frontier (%d,%v)", p.buf, p.acc, acc, ok)
		}
	}
}

// TestBuilderCompactsInPlace: once the Builder's slice has grown to its
// compaction threshold, further Adds — compactions included — reuse it
// and allocate nothing.
func TestBuilderCompactsInPlace(t *testing.T) {
	b := NewBuilder()
	fill := func() {
		for i := int64(0); i < 1<<14; i++ {
			b.Add(i%97, 1000-(i*31)%89)
		}
	}
	fill() // grow the slice to the threshold once
	if n := testing.AllocsPerRun(5, fill); n != 0 {
		t.Fatalf("%v allocations per %d Adds with compactions", n, 1<<14)
	}
}

// TestBuilderCurveDoesNotAlias: a returned curve owns its points, so the
// Builder's later Adds and compactions never change it.
func TestBuilderCurveDoesNotAlias(t *testing.T) {
	b := NewBuilder()
	b.Add(10, 100)
	b.Add(20, 50)
	c := b.Curve()
	before := append([]Point(nil), c.Points()...)
	b.Add(5, 10) // dominates both points
	for i := int64(0); i < 1<<15; i++ {
		b.Add(i, 1<<40-i)
	}
	if b.Curve().Len() == len(before) {
		t.Fatal("later Adds did not change the builder's frontier")
	}
	for i, p := range c.Points() {
		if p != before[i] {
			t.Fatalf("earlier curve changed at %d: %v, was %v", i, p, before[i])
		}
	}
}

func TestBuilderKeepsHugeAllOptimalFrontier(t *testing.T) {
	// Adversarial input for the on-the-fly compaction: more Pareto-optimal
	// points than the initial capLimit (1 << 14). Compaction cannot shrink
	// the slice, so the Builder must raise its threshold instead of
	// thrashing — and every point must survive to the final curve.
	const n = (1 << 14) + 1000
	b := NewBuilder()
	for i := int64(0); i < n; i++ {
		b.Add(i+1, n-i)
	}
	c := b.Curve()
	if c.Len() != n {
		t.Fatalf("frontier has %d points, want all %d (all were Pareto-optimal)", c.Len(), n)
	}
	pts := c.Points()
	for i := int64(0); i < n; i++ {
		if pts[i] != (Point{i + 1, n - i}) {
			t.Fatalf("point %d = %v, want {%d %d}", i, pts[i], i+1, n-i)
		}
	}
}

func TestUnionMatchesSerialUnderConcurrency(t *testing.T) {
	// N goroutines each build a frontier over a shard of one point set;
	// Union of the partial curves must equal the frontier built serially
	// over all points — the invariant parallel traversal rests on.
	rng := rand.New(rand.NewSource(7))
	const total, shards = 40000, 8
	all := make([]Point, total)
	for i := range all {
		all[i] = Point{rng.Int63n(1<<16) + 1, rng.Int63n(1<<24) + 1}
	}
	curves := make([]*Curve, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			b := NewBuilder()
			for i := s; i < total; i += shards {
				b.Add(all[i].BufferBytes, all[i].AccessBytes)
			}
			curves[s] = b.Curve()
		}(s)
	}
	wg.Wait()
	got := Union(curves...)
	want := FromPoints(all)
	gp, wp := got.Points(), want.Points()
	if len(gp) != len(wp) {
		t.Fatalf("union has %d points, serial reference %d", len(gp), len(wp))
	}
	for i := range wp {
		if gp[i] != wp[i] {
			t.Fatalf("point %d: union %v, serial %v", i, gp[i], wp[i])
		}
	}
}

func TestUnionSkipsNilAndEmpty(t *testing.T) {
	a := buildCurve(Point{100, 1000}, Point{200, 500})
	got := Union(nil, a, &Curve{}, nil)
	if got.Len() != a.Len() {
		t.Fatalf("union = %v", got.Points())
	}
	if Union().Len() != 0 {
		t.Fatal("empty union should be empty")
	}
}

func TestFrontierProperty(t *testing.T) {
	f := func(seeds []uint32) bool {
		if len(seeds) == 0 {
			return true
		}
		b := NewBuilder()
		var raws []Point
		for _, s := range seeds {
			p := Point{int64(s % 1024), int64((s / 1024) % 4096)}
			if p.BufferBytes == 0 {
				p.BufferBytes = 1
			}
			if p.AccessBytes == 0 {
				p.AccessBytes = 1
			}
			raws = append(raws, p)
			b.Add(p.BufferBytes, p.AccessBytes)
		}
		c := b.Curve()
		pts := c.Points()
		for i := 1; i < len(pts); i++ {
			if pts[i].BufferBytes <= pts[i-1].BufferBytes ||
				pts[i].AccessBytes >= pts[i-1].AccessBytes {
				return false
			}
		}
		for _, p := range raws {
			acc, ok := c.AccessesAt(p.BufferBytes)
			if !ok || acc > p.AccessBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStringAndTable(t *testing.T) {
	c := buildCurve(Point{1 << 20, 1 << 30}, Point{1 << 21, 1 << 29})
	if c.String() == "" || c.Table() == "" {
		t.Fatal("String/Table should be non-empty")
	}
	if (&Curve{}).String() != "pareto.Curve{empty}" {
		t.Fatal("empty curve String")
	}
}
