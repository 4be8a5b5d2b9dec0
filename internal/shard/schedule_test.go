package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/pareto"
)

// fakeClock is the schedule tests' clock: time moves only when a derive
// hook says its work took some.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// timedJob is syntheticJob whose derive advances clk by perIndex for
// every index it covers and records each block's size.
func timedJob(items int64, clk *fakeClock, perIndex time.Duration, blocks *[]int64) Job {
	job := syntheticJob(items, Plan{Index: 0, Count: 1})
	job.Derive = func(ctx context.Context, lo, hi int64) (*pareto.Curve, int64, error) {
		if blocks != nil {
			*blocks = append(*blocks, hi-lo)
		}
		clk.advance(time.Duration(hi-lo) * perIndex)
		return syntheticDerive(ctx, lo, hi)
	}
	return job
}

// strideOneFile is the partial file a CheckpointEvery: 1 run of the
// synthetic job writes: the reference bytes every schedule must reach.
// Every index is an fsync'd flush, so keep items small.
func strideOneFile(t *testing.T, items int64) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stride1.json")
	if _, _, err := Run(context.Background(), syntheticJob(items, Plan{Index: 0, Count: 1}),
		RunOptions{Path: path, CheckpointEvery: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestScheduleFastSliceFlushesOnce: a slice that finishes well inside
// one flush interval grows its blocks from ~1/32 of the slice and writes
// only its final flush, observed by exactly one OnCheckpoint of a
// complete manifest.
func TestScheduleFastSliceFlushesOnce(t *testing.T) {
	const items = 128
	clk := newFakeClock()
	var blocks []int64
	var seen []Manifest
	ffs := &FaultFS{}
	path := filepath.Join(t.TempDir(), "p.json")
	p, stats, err := Run(context.Background(), timedJob(items, clk, time.Microsecond, &blocks), RunOptions{
		Path:         path,
		FS:           ffs,
		OnCheckpoint: func(m Manifest) { seen = append(seen, m) },
		now:          clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := ffs.Count(OpRename); n != 1 {
		t.Fatalf("%d flushes, want only the final one", n)
	}
	if len(seen) != 1 || !seen[0].Complete() {
		t.Fatalf("OnCheckpoint saw %d manifests (%+v), want one complete", len(seen), seen)
	}
	if !p.Manifest.Complete() {
		t.Fatal("returned partial is incomplete")
	}
	if first := int64((items + defaultBlocksPerShard - 1) / defaultBlocksPerShard); blocks[0] != first {
		t.Fatalf("first block %d indices, want %d (~1/%d of the slice)", blocks[0], first, defaultBlocksPerShard)
	}
	for i := 1; i < len(blocks)-1; i++ {
		if blocks[i] != 2*blocks[i-1] {
			t.Fatalf("block sizes %v do not double", blocks)
		}
	}
	if stats.Blocks != len(blocks) || stats.Blocks > 8 {
		t.Fatalf("%d blocks (%v), want a handful", stats.Blocks, blocks)
	}
	if got, want := readFile(t, path), strideOneFile(t, items); !bytes.Equal(got, want) {
		t.Fatalf("partial differs from a CheckpointEvery: 1 run\n got %s\nwant %s", got, want)
	}
}

// TestScheduleSlowSliceFlushesEveryInterval: on a slice that takes many
// flush intervals, no flush comes more than one interval after the
// previous one (or the start), and block size stops growing at about one
// interval's worth of indices.
func TestScheduleSlowSliceFlushesEveryInterval(t *testing.T) {
	const items = 1 << 18
	const perIndex = 30 * time.Microsecond // ~7.9 s of fake time in all
	clk := newFakeClock()
	start := clk.now()
	var blocks []int64
	var flushes []time.Time
	p, _, err := Run(context.Background(), timedJob(items, clk, perIndex, &blocks), RunOptions{
		Path: filepath.Join(t.TempDir(), "p.json"),
		OnCheckpoint: func(m Manifest) {
			flushes = append(flushes, clk.now())
		},
		now: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Manifest.Complete() {
		t.Fatal("returned partial is incomplete")
	}
	total := time.Duration(items) * perIndex
	if min := int(total / flushInterval); len(flushes) < min {
		t.Fatalf("%d flushes over %v, want at least %d", len(flushes), total, min)
	}
	prev := start
	for i, at := range flushes {
		if gap := at.Sub(prev); gap > flushInterval {
			t.Fatalf("flush %d came %v after the previous one, want at most %v", i, gap, flushInterval)
		}
		prev = at
	}
	var peak int64
	for _, b := range blocks {
		peak = max(peak, b)
	}
	if time.Duration(peak)*perIndex > flushInterval {
		t.Fatalf("largest block %d indices takes %v, more than one interval", peak, time.Duration(peak)*perIndex)
	}
	plateau := 0
	for _, b := range blocks {
		if b == peak {
			plateau++
		}
	}
	if plateau < 3 {
		t.Fatalf("block sizes %v never settle", blocks)
	}
}

// TestScheduleCancelInsideBlockFlushesPending: a cancellation inside a
// block, after earlier blocks completed without a flush of their own,
// commits those blocks before surrendering — the on-disk
// completed_through equals the returned partial's — and resuming from it
// ends in the same bytes as an uninterrupted run.
func TestScheduleCancelInsideBlockFlushesPending(t *testing.T) {
	const items = 128
	clk := newFakeClock()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job := syntheticJob(items, Plan{Index: 0, Count: 1})
	calls := 0
	job.Derive = func(ctx context.Context, lo, hi int64) (*pareto.Curve, int64, error) {
		if calls++; calls == 4 {
			cancel() // inside the fourth block, after three unflushed ones
		}
		return syntheticDerive(ctx, lo, hi)
	}
	flushes := 0
	path := filepath.Join(t.TempDir(), "p.json")
	p, _, err := Run(ctx, job, RunOptions{
		Path:         path,
		OnCheckpoint: func(Manifest) { flushes++ },
		now:          clk.now,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p == nil || p.Manifest.Complete() || p.Manifest.CompletedThrough == 0 {
		t.Fatalf("interrupted run returned %+v, want a partial past its first blocks", p)
	}
	if flushes != 1 {
		t.Fatalf("%d flushes, want the one cancellation flush", flushes)
	}
	cp, err := ReadPartial(path)
	if err != nil {
		t.Fatalf("no checkpoint after cancellation: %v", err)
	}
	if cp.Manifest.CompletedThrough != p.Manifest.CompletedThrough {
		t.Fatalf("disk checkpoint at %d, returned partial at %d",
			cp.Manifest.CompletedThrough, p.Manifest.CompletedThrough)
	}

	_, stats, err := Run(context.Background(), syntheticJob(items, Plan{Index: 0, Count: 1}),
		RunOptions{Path: path, now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Resumed || stats.ResumedFrom != cp.Manifest.CompletedThrough {
		t.Fatalf("resume stats %+v, want resumed at %d", stats, cp.Manifest.CompletedThrough)
	}
	if got, want := readFile(t, path), strideOneFile(t, items); !bytes.Equal(got, want) {
		t.Fatalf("cancel+resume partial differs from a CheckpointEvery: 1 run\n got %s\nwant %s", got, want)
	}
}

// TestScheduleFinalFlushFaults: a fault injected into any step of the
// final flush, on a fast slice (where it is the only flush) and on a slow
// one (where earlier flushes survive), fails the run with the named
// fault; rerunning completes a partial byte-identical to a
// CheckpointEvery: 1 run's.
func TestScheduleFinalFlushFaults(t *testing.T) {
	const items = 128
	want := strideOneFile(t, items)
	errBoom := errors.New("injected fault")
	for _, tc := range []struct {
		name     string
		perIndex time.Duration
	}{{"fast", 0}, {"slow", 20 * time.Millisecond}} {
		clean := newFakeClock()
		ffs := &FaultFS{}
		if _, _, err := Run(context.Background(), timedJob(items, clean, tc.perIndex, nil), RunOptions{
			Path: filepath.Join(t.TempDir(), "clean.json"), FS: ffs, now: clean.now,
		}); err != nil {
			t.Fatal(err)
		}
		final := ffs.Count(OpRename)
		if tc.perIndex > 0 && final < 2 {
			t.Fatalf("%s: %d flushes, want several so the final one is not the first", tc.name, final)
		}
		for _, op := range []Op{OpCreateTemp, OpWrite, OpSync, OpClose, OpRename, OpSyncDir} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, op), func(t *testing.T) {
				clk := newFakeClock()
				path := filepath.Join(t.TempDir(), "p.json")
				_, _, err := Run(context.Background(), timedJob(items, clk, tc.perIndex, nil), RunOptions{
					Path: path, FS: &FaultFS{Fail: failNth(op, final, errBoom)}, now: clk.now,
				})
				if !errors.Is(err, errBoom) {
					t.Fatalf("err = %v, want the injected fault", err)
				}
				if _, serr := os.Stat(path); serr == nil {
					if _, rerr := ReadPartial(path); rerr != nil {
						t.Fatalf("checkpoint is corrupt after the injected %s fault: %v", op, rerr)
					}
				}
				if _, _, err := Run(context.Background(), timedJob(items, clk, tc.perIndex, nil),
					RunOptions{Path: path, now: clk.now}); err != nil {
					t.Fatalf("rerun: %v", err)
				}
				if got := readFile(t, path); !bytes.Equal(got, want) {
					t.Fatalf("partial after %s fault and rerun differs from a CheckpointEvery: 1 run", op)
				}
			})
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
