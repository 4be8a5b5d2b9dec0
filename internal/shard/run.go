package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"time"

	"repro/internal/pareto"
)

// defaultBlocksPerShard sizes the first block of the default checkpoint
// schedule at about 1/defaultBlocksPerShard of the shard's slice; later
// blocks double until one takes about flushInterval (see Run).
const defaultBlocksPerShard = 32

// flushInterval is the target wall time between checkpoint flushes of the
// default schedule: a shard shorter than this writes only its final
// flush, and a killed long shard loses about max(slice/32, flushInterval)
// of work.
const flushInterval = time.Second

// DeriveFunc derives the partial frontier over the global enumeration
// indices [lo, hi) of a flat traversal space, returning the annotated
// curve and the number of points evaluated. bound.DeriveRange,
// fusion.TiledFusionRange and multilevel.DeriveRange adapt directly; the
// hook must be deterministic per index, since a resumed shard may
// re-derive the tail of a partially flushed block (idempotent under
// Pareto insertion, but only for deterministic evaluation). Cancelling
// ctx must abort the derivation promptly and return the context's error —
// the traversal engine's FrontierRange provides exactly this.
type DeriveFunc func(ctx context.Context, lo, hi int64) (*pareto.Curve, int64, error)

// Job describes one shard's share of a derivation: the identity fields
// stamped into the manifest plus the range-derivation hook.
type Job struct {
	Kind     Kind
	Workload string // human-readable label for the manifest

	// WorkloadDigest and OptionsDigest identify the derivation (see
	// Digest); all shards of one plan must be constructed with identical
	// values or the merge will refuse them.
	WorkloadDigest string
	OptionsDigest  string

	// Items is the full flat index-space size (bound.Space,
	// fusion.TiledFusionSpace, ...); Plan selects this shard's slice.
	Items int64
	Plan  Plan

	// Spec, when non-empty, is the canonically encoded workload spec
	// (internal/workload.Encode) this job was compiled from. Run persists
	// it in every checkpoint's manifest so the partial frontier alone can
	// rebuild the job in another process. Purely informational for this
	// package: identity stays with the digests.
	Spec json.RawMessage

	Derive DeriveFunc
}

// RunOptions tunes a shard run.
type RunOptions struct {
	// Path is the partial-frontier file: checkpoint target while running,
	// resume source when it already exists, final artifact on completion.
	Path string

	// CheckpointEvery, when positive, is a fixed stride: the number of
	// enumeration indices derived per block, with a flush after every
	// block. <= 0 selects the elapsed-time schedule (see Run): flushes
	// about once per second, and only the final one for a short shard.
	CheckpointEvery int64

	// OnCheckpoint, when non-nil, observes the manifest after every
	// successful flush — progress reporting for the CLIs.
	OnCheckpoint func(Manifest)

	// FS overrides the filesystem the checkpoint path uses. Nil means
	// the real OS filesystem; tests inject a FaultFS here.
	FS FS

	// now replaces time.Now as the clock of the elapsed-time schedule;
	// nil means time.Now. The schedule tests drive it with a fake clock.
	now func() time.Time
}

// RunStats reports what a shard run actually did.
type RunStats struct {
	Evaluated   int64         // points evaluated this run (excludes resumed work)
	Blocks      int           // checkpoint blocks derived this run
	Resumed     bool          // whether an existing partial was continued
	ResumedFrom int64         // global index the run started at
	SweptTemps  int           // stale temp files removed on startup
	Elapsed     time.Duration // wall-clock time of this run
}

// Run executes one shard: it derives the job's slice in blocks, flushing
// the accumulated partial frontier to opts.Path at block boundaries, and
// returns the final partial. If opts.Path already holds a partial of the
// same derivation and shard, the run resumes at its completed-through
// mark — the restart path for a killed shard; a partial of a different
// derivation is an error, never silently overwritten. A legacy
// format-version-1 checkpoint resumes like any other and is upgraded in
// place: the first flush rewrites it at the current FormatVersion with
// the job's Spec embedded.
// Stale temp files a killed predecessor left next to opts.Path are swept
// on startup.
//
// With a positive opts.CheckpointEvery every block has that many indices
// and ends in a flush. Otherwise the schedule follows elapsed time: the
// first block is about 1/32 of the slice, each later one twice the last
// until a block takes about flushInterval, and a block boundary flushes
// only when waiting for the next one would leave the last flush more
// than flushInterval behind. The final block always flushes. Where the
// blocks are cut never changes the completed partial's bytes. Every
// flush, the final and cancellation ones included, is followed by
// opts.OnCheckpoint.
//
// Cancelling ctx stops the run within about one traversal worker chunk —
// inside a block, not just between blocks — discards the interrupted
// block, flushes the completed blocks not yet on disk, and returns the
// context error together with the resumable partial, whose
// completed-through mark equals the one on disk. Every error return
// wraps either a context error, ErrCorruptPartial, ErrForeignPartial, or
// describes an I/O failure whose on-disk state is still the last
// successfully flushed checkpoint; none leaves a corrupt artifact at
// opts.Path.
func Run(ctx context.Context, job Job, opts RunOptions) (*Partial, RunStats, error) {
	now := opts.now
	if now == nil {
		now = time.Now
	}
	start := now()
	var stats RunStats
	elapse := func() { stats.Elapsed = now().Sub(start) }
	if err := job.Plan.Validate(); err != nil {
		return nil, stats, err
	}
	if job.Derive == nil {
		return nil, stats, fmt.Errorf("shard: job has no derive hook")
	}
	if opts.Path == "" {
		return nil, stats, fmt.Errorf("shard: no partial-frontier path")
	}
	fsys := orOS(opts.FS)
	// A killed predecessor leaks exactly the "<base>.tmp*" temps of
	// WriteFileAtomic; sibling shards' temps in the directory are spared.
	if swept, err := SweepTemps(fsys, opts.Path+".tmp*", 0); err == nil {
		stats.SweptTemps = len(swept)
	}
	lo, hi := job.Plan.Slice(job.Items)
	m := Manifest{
		FormatVersion:    FormatVersion,
		Engine:           Engine,
		Kind:             job.Kind,
		Workload:         job.Workload,
		WorkloadDigest:   job.WorkloadDigest,
		OptionsDigest:    job.OptionsDigest,
		ShardIndex:       job.Plan.Index,
		ShardCount:       job.Plan.Count,
		Items:            job.Items,
		RangeLo:          lo,
		RangeHi:          hi,
		CompletedThrough: lo,
		Spec:             job.Spec,
	}
	if err := m.Validate(); err != nil {
		return nil, stats, err
	}

	var acc *pareto.Curve
	prev, err := ReadPartialFS(fsys, opts.Path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Fresh start: no checkpoint yet.
	case err != nil:
		// An unreadable checkpoint is evidence of a problem (corruption,
		// wrong file); overwriting it would destroy that evidence. The
		// shard coordinator quarantines it (rename to *.corrupt) and
		// re-derives.
		if !errors.Is(err, ErrCorruptPartial) {
			err = fmt.Errorf("%w: %w", ErrCorruptPartial, err)
		}
		return nil, stats, fmt.Errorf("shard: %s exists but is not a readable partial; refusing to overwrite: %w", opts.Path, err)
	default:
		if cerr := prev.Manifest.CompatibleWith(&m); cerr != nil {
			return nil, stats, fmt.Errorf("shard: %s holds a different derivation (%v); refusing to resume or overwrite: %w",
				opts.Path, cerr, ErrForeignPartial)
		}
		if prev.Manifest.ShardIndex != m.ShardIndex {
			return nil, stats, fmt.Errorf("shard: %s holds shard %d/%d, this run is %s; refusing to resume or overwrite: %w",
				opts.Path, prev.Manifest.ShardIndex+1, prev.Manifest.ShardCount, job.Plan, ErrForeignPartial)
		}
		m.CompletedThrough = prev.Manifest.CompletedThrough
		acc = prev.Curve
		stats.Resumed = true
	}
	stats.ResumedFrom = m.CompletedThrough

	fixed := opts.CheckpointEvery > 0
	block := opts.CheckpointEvery
	if !fixed {
		block = max(1, (hi-lo+defaultBlocksPerShard-1)/defaultBlocksPerShard)
	}
	lastFlush := start
	pending := false // blocks derived since the last flush

	// flush persists the accumulated state at the current block boundary
	// and reports it to OnCheckpoint.
	flush := func() error {
		if err := writePartial(fsys, opts.Path, &Partial{Manifest: m, Curve: acc}); err != nil {
			return err
		}
		lastFlush, pending = now(), false
		if opts.OnCheckpoint != nil {
			opts.OnCheckpoint(m)
		}
		return nil
	}
	// interrupted surrenders a cancelled run with the resumable partial,
	// first committing the completed blocks not yet on disk so the
	// on-disk mark equals the returned one.
	interrupted := func(cerr error) (*Partial, RunStats, error) {
		if pending {
			if err := flush(); err != nil {
				elapse()
				return nil, stats, err
			}
		}
		elapse()
		return &Partial{Manifest: m, Curve: acc}, stats, cerr
	}

	for m.CompletedThrough < hi {
		if err := ctx.Err(); err != nil {
			// Interrupted between blocks (e.g. SIGINT/SIGTERM through
			// signal.NotifyContext).
			return interrupted(err)
		}
		bhi := min(hi, m.CompletedThrough+block)
		t0 := now()
		blk, n, err := job.Derive(ctx, m.CompletedThrough, bhi)
		if err != nil {
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				// Cancelled inside the block: its work is discarded by
				// design, since a curve over an unknown index subset
				// cannot be committed.
				return interrupted(err)
			}
			elapse()
			return nil, stats, fmt.Errorf("shard: deriving [%d, %d): %w", m.CompletedThrough, bhi, err)
		}
		took := now().Sub(t0)
		merged := pareto.Union(acc, blk)
		merged.AlgoMinBytes = blk.AlgoMinBytes
		merged.TotalOperandBytes = blk.TotalOperandBytes
		acc = merged
		m.CompletedThrough = bhi
		stats.Evaluated += n
		stats.Blocks++
		pending = true
		next := block
		if !fixed {
			next = nextBlock(block, took, hi-lo)
		}
		// Flush unless the next block boundary still comes within
		// flushInterval of the last flush (predicting the next block's
		// time from this one's rate).
		predicted := time.Duration(float64(took) * float64(next) / float64(block))
		due := fixed || bhi == hi || now().Sub(lastFlush)+predicted > flushInterval
		if due {
			if err := flush(); err != nil {
				elapse()
				return nil, stats, err
			}
		}
		block = next
	}

	if acc == nil {
		// Empty slice (more shards than items) or an already complete
		// resume of an empty shard: derive the empty range so the curve
		// still carries the workload annotations, then persist.
		blk, _, err := job.Derive(ctx, lo, lo)
		if err != nil {
			elapse()
			return nil, stats, fmt.Errorf("shard: deriving empty slice: %w", err)
		}
		acc = blk
		if err := flush(); err != nil {
			elapse()
			return nil, stats, err
		}
	}
	elapse()
	return &Partial{Manifest: m, Curve: acc}, stats, nil
}

// nextBlock sizes the block after one of block indices that took took:
// twice as large while a block takes under half of flushInterval, then
// about one interval's worth of indices at the observed rate, within
// [1, limit].
func nextBlock(block int64, took time.Duration, limit int64) int64 {
	next := 2 * block
	if took > flushInterval/2 {
		next = int64(float64(block) * float64(flushInterval) / float64(took))
	}
	return min(max(next, 1), limit)
}
