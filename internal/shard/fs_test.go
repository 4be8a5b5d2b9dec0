package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestWriteFileAtomicFaults injects a failure at each step of the
// durable write. Every failure before the rename leaves the previous file
// untouched; a failed directory sync comes after the rename committed, so
// the target holds the complete new bytes. No temp file survives any of
// them.
func TestWriteFileAtomicFaults(t *testing.T) {
	errBoom := errors.New("injected fault")
	oldData, newData := []byte("old generation\n"), []byte("new generation\n")
	for _, op := range []Op{OpCreateTemp, OpWrite, OpSync, OpClose, OpRename, OpSyncDir} {
		t.Run(string(op), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "f.json")
			if err := WriteFileAtomic(nil, path, oldData); err != nil {
				t.Fatal(err)
			}
			err := WriteFileAtomic(&FaultFS{Fail: FailN(op, 1, errBoom)}, path, newData)
			if !errors.Is(err, errBoom) {
				t.Fatalf("err = %v, want the injected %s fault", err, op)
			}
			want := oldData
			if op == OpSyncDir {
				want = newData
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != string(want) {
				t.Fatalf("target after injected %s fault = %q (err %v), want %q", op, got, err, want)
			}
			if temps, _ := filepath.Glob(path + ".tmp*"); len(temps) != 0 {
				t.Fatalf("temp files left after injected %s fault: %v", op, temps)
			}
		})
	}
}

// TestQuarantineConcurrentGenerations: concurrent quarantines onto one
// base name each reserve a distinct generation, so no evidence file is
// overwritten and every file's content survives under its own name.
func TestQuarantineConcurrentGenerations(t *testing.T) {
	const n = 16
	dir := t.TempDir()
	base := filepath.Join(dir, "slot.corrupt")
	names := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		path := filepath.Join(dir, fmt.Sprintf("bad-%d", i))
		if err := os.WriteFile(path, []byte(fmt.Sprintf("evidence %d", i)), 0o644); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			q, err := Quarantine(OS(), path, base)
			if err != nil {
				t.Errorf("quarantining %s: %v", path, err)
				return
			}
			names[i] = q
		}(i, path)
	}
	wg.Wait()
	seen := map[string]bool{}
	for i, q := range names {
		if seen[q] {
			t.Fatalf("generation %s handed out twice", q)
		}
		seen[q] = true
		if got, err := os.ReadFile(q); err != nil || string(got) != fmt.Sprintf("evidence %d", i) {
			t.Fatalf("%s holds %q (err %v), want evidence %d", q, got, err, i)
		}
	}
	for i := 1; i < n; i++ {
		if name := fmt.Sprintf("%s.%d", base, i); !seen[name] {
			t.Fatalf("generation %s unused: quarantines did not fill the first %d names", name, n)
		}
	}
}
