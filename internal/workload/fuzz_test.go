package workload

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode: Decode never panics on arbitrary bytes, and the canonical
// encoding of any spec it accepts is a fixed point:
// Encode(Decode(Encode(s))) == Encode(s).
func FuzzDecode(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "spec_*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed specs in testdata (err %v)", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(`{"kind":"nonsense"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		first, err := s.Encode()
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		back, err := Decode(first)
		if err != nil {
			t.Fatalf("canonical encoding %s rejected: %v", first, err)
		}
		second, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(first) != string(second) {
			t.Fatalf("spec encoding does not round trip\nfirst  %s\nsecond %s", first, second)
		}
	})
}
