package einsum

import (
	"fmt"
	"testing"
)

// TestDenseBeyond64Ranks pins that the dense form has no rank cap: a GEMM
// with 70 extra shape-1 ranks compiles, and every relevance entry matches
// Tensor.Relevant.
func TestDenseBeyond64Ranks(t *testing.T) {
	e := GEMM("g", 8, 4, 2)
	for i := 0; i < 70; i++ {
		name := fmt.Sprintf("U%d", i)
		e.Ranks = append(e.Ranks, Rank{Name: name, Shape: 1})
		e.Tensors[i%2].Dims = append(e.Tensors[i%2].Dims, id(name))
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	for ti, dt := range e.Dense() {
		for i, r := range e.Ranks {
			if want := e.Tensors[ti].Relevant(r.Name); dt.Relevant[i] != want {
				t.Fatalf("tensor %s rank %s: Relevant %v, want %v", e.Tensors[ti].Name, r.Name, dt.Relevant[i], want)
			}
		}
	}
}

func TestValidateCapsTensors(t *testing.T) {
	e := GEMM("g", 4, 4, 4)
	for i := 0; len(e.Tensors) < MaxTensors; i++ {
		extra := e.Tensors[0]
		extra.Name = fmt.Sprintf("X%d", i)
		e.Tensors = append(e.Tensors, extra)
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("%d tensors: %v", len(e.Tensors), err)
	}
	e.Tensors = append(e.Tensors, Tensor{Name: "Y", Dims: []Dim{id("M")}})
	if err := e.Validate(); err == nil {
		t.Fatalf("%d tensors validated, want an error", len(e.Tensors))
	}
}
