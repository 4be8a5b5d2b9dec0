package shape

import (
	"testing"
	"testing/quick"
)

func TestDivisors(t *testing.T) {
	cases := []struct {
		n    int64
		want []int64
	}{
		{1, []int64{1}},
		{2, []int64{1, 2}},
		{12, []int64{1, 2, 3, 4, 6, 12}},
		{16, []int64{1, 2, 4, 8, 16}},
		{17, []int64{1, 17}},
		{36, []int64{1, 2, 3, 4, 6, 9, 12, 18, 36}},
	}
	for _, c := range cases {
		got := Divisors(c.n)
		if len(got) != len(c.want) {
			t.Fatalf("Divisors(%d) = %v, want %v", c.n, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Divisors(%d) = %v, want %v", c.n, got, c.want)
			}
		}
	}
}

func TestDivisorsPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Divisors(0) did not panic")
		}
	}()
	Divisors(0)
}

func TestDivisorsProperties(t *testing.T) {
	f := func(raw uint16) bool {
		n := int64(raw%4096) + 1
		divs := Divisors(n)
		// Sorted, unique, all divide n, includes 1 and n.
		if divs[0] != 1 || divs[len(divs)-1] != n {
			return false
		}
		for i, d := range divs {
			if n%d != 0 {
				return false
			}
			if i > 0 && divs[i-1] >= d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplits(t *testing.T) {
	sp := Splits(12)
	if len(sp) != 6 {
		t.Fatalf("Splits(12) returned %d entries, want 6", len(sp))
	}
	for _, s := range sp {
		if s.Inner*s.Outer != 12 {
			t.Fatalf("split %+v does not multiply to 12", s)
		}
	}
	if sp[0].Inner != 1 || sp[len(sp)-1].Inner != 12 {
		t.Fatalf("Splits(12) not ordered by inner: %+v", sp)
	}
}

func TestThreeSplits(t *testing.T) {
	ts := ThreeSplits(8)
	// For n = p^3 with p prime^k... count = number of ordered triples
	// (a,b,c) with abc=8: for 2^3 it is C(3+2,2) = 10.
	if len(ts) != 10 {
		t.Fatalf("ThreeSplits(8) returned %d entries, want 10", len(ts))
	}
	for _, s := range ts {
		if s.L0*s.L1*s.L2 != 8 {
			t.Fatalf("three-split %+v does not multiply to 8", s)
		}
	}
}

func TestProduct(t *testing.T) {
	if got := Product(3, 4, 5); got != 60 {
		t.Fatalf("Product(3,4,5) = %d, want 60", got)
	}
	if got := Product(); got != 1 {
		t.Fatalf("Product() = %d, want 1", got)
	}
	if got := Product(10, 0, 5); got != 0 {
		t.Fatalf("Product with zero = %d, want 0", got)
	}
}

func TestProductOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Product overflow did not panic")
		}
	}()
	Product(1<<40, 1<<40)
}

// TestProductDoesNotAllocate: the overflow panic must not let the
// variadic slice escape, or every call would heap-allocate it.
func TestProductDoesNotAllocate(t *testing.T) {
	a, b, c := int64(3), int64(5), int64(7)
	var sink int64
	if n := testing.AllocsPerRun(100, func() { sink += Product(a, b, c) }); n != 0 {
		t.Fatalf("Product allocates %v times per call", n)
	}
	_ = sink
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{10, 5, 2}, {11, 5, 3}, {1, 5, 1}, {5, 5, 1}, {0, 5, 0},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Fatalf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	if Max(3, 7) != 7 || Max(7, 3) != 7 {
		t.Fatal("Max broken")
	}
	if Min(3, 7) != 3 || Min(7, 3) != 3 {
		t.Fatal("Min broken")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		b    int64
		want string
	}{
		{512, "512B"},
		{1 << 10, "1.00KB"},
		{320 << 20, "320.00MB"},
		{3 << 30, "3.00GB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.b); got != c.want {
			t.Fatalf("FormatBytes(%d) = %q, want %q", c.b, got, c.want)
		}
	}
}

func TestPermutations(t *testing.T) {
	p3 := Permutations(3)
	if len(p3) != 6 {
		t.Fatalf("Permutations(3) returned %d, want 6", len(p3))
	}
	seen := map[[3]int]bool{}
	for _, p := range p3 {
		var key [3]int
		copy(key[:], p)
		if seen[key] {
			t.Fatalf("duplicate permutation %v", p)
		}
		seen[key] = true
	}
	if len(Permutations(0)) != 1 {
		t.Fatal("Permutations(0) should contain the empty permutation")
	}
}

func TestSplitsProperty(t *testing.T) {
	f := func(raw uint16) bool {
		n := int64(raw%2048) + 1
		for _, s := range Splits(n) {
			if s.Inner*s.Outer != n || s.Inner < 1 || s.Outer < 1 {
				return false
			}
		}
		return len(Splits(n)) == len(Divisors(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
