package store_test

import (
	"bytes"
	"testing"

	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// FuzzDecodeEntry: entry verification never panics, and an entry it
// accepts re-encodes to bytes that verify again and re-encode
// byte-identically — so an entry the store serves is exactly the entry
// it would write back.
func FuzzDecodeEntry(f *testing.F) {
	digest := shard.Digest("workload-a")
	segmented := testEntry(testCurve())
	segmented.Segments = []workload.Segment{{Label: "[0:2)", Points: 3, Curve: testCurve()}}
	for _, ent := range []*store.Entry{testEntry(testCurve()), testEntry(bigCurve(16)), segmented} {
		data, err := store.EncodeEntry(digest, ent)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, digest)
		f.Add(data[:len(data)/2], digest)
		f.Add(data, shard.Digest("some-other-workload"))
	}
	f.Add([]byte(`{"format_version":1}`), digest)
	f.Fuzz(func(t *testing.T, data []byte, digest string) {
		ent, err := store.DecodeEntry(data, digest)
		if err != nil {
			return
		}
		first, err := store.EncodeEntry(digest, ent)
		if err != nil {
			t.Fatalf("accepted entry does not re-encode: %v", err)
		}
		again, err := store.DecodeEntry(first, digest)
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v", err)
		}
		second, err := store.EncodeEntry(digest, again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("entry encoding does not round trip\nfirst  %s\nsecond %s", first, second)
		}
	})
}
