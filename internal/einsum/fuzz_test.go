package einsum

import "testing"

// FuzzParse: Parse never panics, and the String() of an accepted einsum
// parses back to an einsum with the same String().
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"B[m,n] = A[m,k] * W[k,n] {M=64, K=32, N=16}",
		"B[p,q,n] = A[2p+2r, 2q+2s, c] * W[c,n,r,s] {P=16,Q=16,N=8,C=4,R=3,S=3}",
		"B[h,m,n] = A[h,m,k] * W[h/8, k, n] {H=32,M=16,K=8,N=16}",
		"B[M,n] = A[m,K] * W[k,N] {m=4, k=4, n=4}",
		"B[m,n] = A[m,k] x W[k,n] {M=4,K=4,N=4}",
		"B[m,n] = A[m,k] * W[k,n] * S[n] {M=4,K=4,N=4}",
		"B[m,n] = A[m,k] * W[k,n] {M=8,K=8,N=8}",
		"nonsense",
		"",
		"B[m,n]",
		"B[m,n] = A[m,k] {M=4,K=4}",
		"B[m,n] = A[m,k] * W[k,n] {M=4,K=4}",
		"B[m,n] = A[m,k] * W[k,n] {M=4,K=4,N=4,Z=4}",
		"B[m,n] = A[m,k] * W[k,n] {M=4,K=4,N=0}",
		"B[m,n] = A[m,k] * W[k/1,n] {M=4,K=4,N=4}",
		"B[m,n] = A[m,k] * W[2k/4,n] {M=4,K=4,N=4}",
		"B[m,n = A[m,k] * W[k,n] {M=4,K=4,N=4}",
		"B[m,n] = A[m,k] * W[k,n] {M=4,K=4,N=4} garbage",
		"B[m,n] = A[m,k] * W[k,n] {M=4,K=4,N=4,M=8}",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e, err := Parse(s)
		if err != nil {
			return
		}
		str := e.String()
		back, err := Parse(str)
		if err != nil {
			t.Fatalf("String() of %q is %q, which does not parse: %v", s, str, err)
		}
		if got := back.String(); got != str {
			t.Fatalf("String() of %q does not round trip\nfirst  %q\nsecond %q", s, str, got)
		}
	})
}
