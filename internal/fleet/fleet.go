// Package fleet is the one shard coordinator of the repository: it runs
// every shard of a sharded bound derivation to completion and merges the
// result, either in-process or distributed across worker processes over
// HTTP — the step from "one big machine" to "fleet". For the HTTP
// transport it is the coordinator half of the wire protocol in
// docs/fleet-protocol.md: the worker half is the POST /v1/shard endpoint
// internal/serve mounts.
//
// The coordinator decomposes a compiled workload.Spec into the same
// deterministic shard plan a single process would use (shard.Plan over
// the flat enumeration space) and drives each slice through one
// per-shard loop: a spool slot (supervise.ShardPath under Options.Dir),
// bounded retries with exponential backoff and deterministic jitter
// (supervise.Backoff), per-attempt deadlines, quarantine of corrupt or
// foreign slots to "<slot>.corrupt[.N]", interrupt-and-resume, and an
// exact or — under Options.AllowPartial — annotated degraded merge. The
// transport is chosen per run:
//
//   - In-process. With no workers (Options.Workers empty and no members
//     in Options.Registry), each attempt is RunSlot: shard.Run
//     checkpointing straight into the spool slot, resuming an incomplete
//     compatible slot. At most min(n, GOMAXPROCS) shards derive at once
//     — each shard's own traversal already parallelizes. A derivation
//     that reports cancellation its own attempt deadline did not cause
//     is external intent and is not retried.
//   - HTTP. Each attempt POSTs the slice to a worker and validates the
//     response before it may touch the spool.
//
// Around HTTP dispatches the coordinator adds the fleet policy:
//
//   - Per-worker parallelism caps. Each worker URL holds a fixed number
//     of dispatch slots; a shard waits for a free slot anywhere in the
//     fleet rather than overloading one worker.
//   - Retry elsewhere. A failed dispatch (network error, worker
//     5xx/429/503, invalid response) is retried on another worker.
//     Deterministic rejections (worker 4xx) are not retried: the same
//     spec would fail the same way everywhere.
//   - Quarantine of invalid responses. A response that is not a
//     structurally valid, complete, digest-compatible partial frontier
//     is written aside (never to the shard's slot) and the dispatch
//     retried elsewhere — a byzantine or torn response can cost time,
//     never correctness.
//   - Speculative re-execution. When a dispatch outlives
//     Options.SpeculateAfter and an idle slot exists on a different
//     worker, the slice is launched there too; the first valid response
//     wins and the loser is cancelled. Duplicates are discarded after
//     digest validation, so speculation never double-counts.
//   - Fleet health and membership. The Registry tracks each worker's
//     probed health (/readyz), a per-worker circuit breaker that opens
//     on consecutive failures (or a windowed error rate) and sheds load
//     until a half-open probe dispatch succeeds, Retry-After holds, and
//     an EWMA shards/sec throughput estimate that allocation ranks by —
//     fast workers get proportionally more dispatches. Membership is
//     dynamic: workers added mid-run start receiving queued shards, and
//     an emptied membership fails pending shards with ErrNoWorkers
//     instead of hanging. See docs/fleet-protocol.md "Health, membership
//     & breakers".
//
// Both transports fill the same slots, written atomically through
// Options.FS: a killed or interrupted run resumes by rerunning — with
// either transport, or via serve.ResumeOrphans / shardmerge -resume —
// and the final merge reuses shard.MergeFiles / shard.MergeDegraded, so
// the result is byte-identical to a single-process derivation (or the
// same annotated degraded envelope under Options.AllowPartial).
//
// Cancellation (SIGINT/SIGTERM via signal.NotifyContext in the CLIs)
// reaches inside a checkpoint block: shard.Run plumbs the context through
// the traversal engine, so an in-process run stops within about one
// traversal worker chunk and flushes a final checkpoint.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pareto"
	"repro/internal/shard"
	"repro/internal/supervise"
	"repro/internal/workload"
)

// Defaults for the dispatch policy; tests shorten them via Options.
const (
	// DefaultPerWorker is the per-worker concurrent-dispatch cap when
	// Options.PerWorker is unset.
	DefaultPerWorker = 2

	// maxShardDeferrals bounds how many Retry-After deferrals one shard
	// absorbs without burning retry budget; past it a deferral is treated
	// as an ordinary retryable failure, so a fleet that politely defers
	// forever still terminates.
	maxShardDeferrals = 64
)

// ErrNoWorkers is returned (wrapped) when a dispatch finds the fleet
// membership empty — every worker removed at runtime. Shards fail with
// it immediately rather than waiting for a join that may never come.
var ErrNoWorkers = errors.New("fleet: no workers in membership")

// ErrRetriesExhausted marks (wrapped, alongside the last attempt's
// error) a shard that spent its whole retry budget without completing —
// for the HTTP transport, the "every remaining worker is dead or lying"
// outcome. errors.Is(err, ErrRetriesExhausted) holds for Run's error
// when any shard failed this way and AllowPartial did not promote the
// run to a degraded merge.
var ErrRetriesExhausted = errors.New("fleet: retry budget exhausted")

// errNotRetryable marks an in-process attempt whose derivation reported
// cancellation that neither the run's context nor the attempt deadline
// caused (e.g. a server request whose waiters all left): retrying cannot
// succeed, so the shard fails at once.
var errNotRetryable = errors.New("fleet: cancelled from inside the derivation (not retryable)")

// ShardRequest is the body of POST /v1/shard — the coordinator→worker
// half of the fleet wire protocol (docs/fleet-protocol.md). The response
// to a 200 is the raw partial-frontier file defined in
// docs/shard-format.md. The type lives here so the coordinator and the
// serve worker endpoint share one schema; both sides reject unknown
// fields so a schema skew degrades to a 400, never to a silently
// different derivation.
type ShardRequest struct {
	// Spec is the canonical encoding of a materialized workload.Spec
	// (Spec.Encode). The worker compiles it through the engine registry;
	// a kind absent from the registry is a structured 400.
	Spec json.RawMessage `json:"spec"`

	// ShardIndex (0-based) of ShardCount selects the plan slice the
	// worker derives.
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`

	// CheckpointEvery overrides the worker-side checkpoint schedule with
	// a fixed stride (shard.RunOptions semantics); 0 means the worker's
	// configured stride, or the elapsed-time schedule if it has none.
	CheckpointEvery int64 `json:"checkpoint_every,omitempty"`

	// TimeoutMS bounds the worker-side wall time of the shard run. Zero
	// means the worker's default; values above its maximum clamp.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// MaxFormatVersion is the newest partial-frontier format version the
	// coordinator can read (version negotiation against
	// docs/shard-format.md). Zero means "any"; a worker that only writes
	// newer formats answers 400 unsupported_version instead of bytes the
	// coordinator would have to quarantine.
	MaxFormatVersion int `json:"max_format_version,omitempty"`
}

// Options tunes a coordinator run.
type Options struct {
	// Workers are the base URLs of the peer workers (each serving POST
	// /v1/shard), e.g. "http://host:8080". With no Workers and no members
	// in Registry, the run derives its shards in-process.
	Workers []string

	// Dir is the spool directory the per-shard partial frontiers live in
	// (supervise.ShardPath layout): checkpoint targets of in-process
	// shards, landing slots of dispatched ones, resume sources on a
	// rerun. Required.
	Dir string

	// PerWorker caps concurrent dispatches per worker; <= 0 means
	// DefaultPerWorker.
	PerWorker int

	// MaxRetries is the per-shard retry budget beyond the first attempt:
	// 0 means supervise.DefaultMaxRetries, negative means no retries.
	MaxRetries int

	// BaseBackoff and MaxBackoff bound the exponential backoff between a
	// shard's attempts, with deterministic jitter seeded by JitterSeed
	// (supervise.NewBackoff; zero values pick its defaults).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	JitterSeed  int64

	// AttemptTimeout, when positive, bounds each attempt; one that
	// exceeds it is cancelled and retried. Progress survives: an
	// in-process shard resumes from its last checkpoint, and a worker
	// keeps its own checkpoint for the retried dispatch.
	AttemptTimeout time.Duration

	// SpeculateAfter, when positive, launches a duplicate dispatch of a
	// still-running slice on an idle different worker after this delay;
	// the first valid response wins. Zero disables speculation.
	SpeculateAfter time.Duration

	// CheckpointEvery is a fixed checkpoint stride for in-process shards
	// (shard.RunOptions semantics), forwarded to workers for dispatched
	// ones; 0 keeps the elapsed-time schedule, about one flush per second.
	CheckpointEvery int64

	// AllowPartial permits a degraded merge when shards fail
	// permanently: the result carries its covered index fraction instead
	// of being refused.
	AllowPartial bool

	// Exec configures the compiled shard jobs: the traversal workers of
	// in-process shards, and the digests and expectations dispatched
	// responses are validated against. Worker counts never affect
	// results, so the zero value is fine.
	Exec workload.Exec

	// Client is the HTTP client dispatches use; nil means
	// http.DefaultClient. Injecting a client with a scripted
	// http.RoundTripper is the fault-injection seam the fleet and chaos
	// tests use.
	Client *http.Client

	// Registry, when non-nil, is an externally owned membership the run
	// dispatches through: health, breaker, hold and throughput state
	// persist across runs (serve shares one Registry per server), and
	// runtime Add/Remove/SetWorkers calls steer this run live. Workers
	// listed in Options.Workers are joined to it. When nil, the run
	// builds a private registry from Workers.
	Registry *Registry

	// ProbeInterval, when positive and the run owns its registry (no
	// Options.Registry), probes each member's /readyz on this period for
	// the duration of the run. An externally owned registry does its own
	// probing (Registry.StartProbing).
	ProbeInterval time.Duration

	// Breaker tunes the per-worker circuit breakers of a run-owned
	// registry; ignored when Options.Registry is set.
	Breaker BreakerConfig

	// FS is the filesystem every spool operation goes through — slot
	// reads, checkpoint flushes, spooled responses, quarantines (nil =
	// the real filesystem); the robustness suites inject faults here.
	FS shard.FS

	// Logf, when non-nil, receives human-readable progress and failure
	// lines (retries, quarantines, speculation, interrupts).
	Logf func(format string, args ...any)

	// OnCheckpoint, when non-nil, observes every checkpoint flush of
	// every in-process shard, including each shard's final one.
	OnCheckpoint func(shard.Manifest)

	// wrapJob, when non-nil, rewrites every compiled job before its
	// first attempt — the test seam for injecting derivation faults.
	wrapJob func(*shard.Job)
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

func (o *Options) client() *http.Client {
	if o.Client != nil {
		return o.Client
	}
	return http.DefaultClient
}

func (o *Options) perWorker() int {
	if o.PerWorker <= 0 {
		return DefaultPerWorker
	}
	return o.PerWorker
}

// ShardState reports what the coordinator did for one shard.
type ShardState struct {
	Plan shard.Plan
	Path string // partial-frontier file in the spool

	// Dispatches counts attempts launched for this shard — in-process
	// shard runs, or HTTP dispatches including speculative duplicates;
	// Speculated counts just the duplicates.
	Dispatches int
	Speculated int

	// Deferred counts Retry-After deferrals this shard absorbed (held
	// the worker, retried elsewhere, no retry budget spent).
	Deferred int

	// Quarantined lists files set aside for inspection: corrupt or
	// foreign slot contents, and invalid worker responses.
	Quarantined []string

	// Resumed reports the shard was already complete in the spool — a
	// previous run's work honored without deriving anything.
	Resumed bool

	// Worker is the URL whose response won (empty for in-process,
	// resumed or failed shards).
	Worker string

	Completed bool
	// Evaluated is the work this run spent on the shard: for in-process
	// shards the points shard.Run evaluated, summed over attempts; for
	// dispatched shards the slice's index count once completed (the
	// coordinator does not observe worker-side evaluation counts), and 0
	// when Resumed.
	Evaluated int64
	// Err is the terminal error when !Completed (nil if interrupted
	// cleanly; the shard stays resumable either way).
	Err error
}

// Report is the outcome of a coordinator run: per-shard states, totals
// for operational telemetry, and exactly one of Curve (exact merge) or
// Degraded (annotated best-effort merge under AllowPartial); both nil
// when the run was interrupted or failed.
type Report struct {
	Shards      []ShardState
	Curve       *pareto.Curve
	Degraded    *shard.Degraded
	Interrupted bool

	// Dispatches, Retries, Speculations, Quarantines and Deferrals
	// aggregate the HTTP transport's per-shard counts — the numbers serve
	// feeds into /stats; in-process runs leave them zero.
	Dispatches   int64
	Retries      int64
	Speculations int64
	Quarantines  int64
	Deferrals    int64

	// Workers is the per-worker health, breaker and throughput snapshot
	// at the end of an HTTP run (Registry.Snapshot).
	Workers []WorkerStatus
}

// coord is one Run invocation's shared state.
type coord struct {
	spec *workload.Spec
	n    int
	opts *Options
	fsys shard.FS

	// reg is the HTTP transport's membership and data the canonical spec
	// encoding shipped in every request; slots bounds concurrent
	// in-process attempts. Exactly one transport is set up: reg == nil
	// selects in-process execution.
	reg   *Registry
	data  []byte
	slots chan struct{}

	dispatches   atomic.Int64
	retries      atomic.Int64
	speculations atomic.Int64
	quarantines  atomic.Int64
	deferrals    atomic.Int64
}

// record feeds one dispatch outcome into the registry's health books.
// It runs in the dispatch goroutine so speculative losers' outcomes are
// recorded too.
func (c *coord) record(worker string, elapsed time.Duration, err error) {
	var ra *RetryAfterError
	var perm *PermanentError
	switch {
	case err == nil:
		c.reg.success(worker, elapsed)
	case errors.Is(err, context.Canceled):
		// A cancelled dispatch — the run interrupted, or a speculation
		// loser — says nothing about the worker's health.
	case errors.As(err, &ra):
		// A polite deferral holds exactly that worker for exactly the
		// hinted duration; it never trips the breaker.
		c.reg.hold(worker, ra.After)
		c.reg.failure(worker, false, err.Error())
	case errors.As(err, &perm):
		// Deterministic spec rejections are about the request, not the
		// worker.
		c.reg.failure(worker, false, err.Error())
	default:
		// Transport errors, 5xx, invalid responses, and attempt timeouts
		// (context.DeadlineExceeded — a hung worker) trip the breaker.
		c.reg.failure(worker, true, err.Error())
	}
}

// Run derives an n-shard plan of spec to completion and merges the
// result — in-process when the run has no workers, else by dispatching
// the slices over HTTP. The spec must be materialized (workload.Spec.
// Materialize): its digests are the merge-compatibility identity every
// slot and every worker response is validated against. Partials live in
// Options.Dir in the supervise layout; shards already complete there are
// honored without deriving, and incomplete in-process checkpoints are
// resumed, so rerunning after an interrupt or a kill — with either
// transport — continues instead of restarting. On success the report
// carries the exact merged curve, byte-identical to a single-process
// derivation; permanent shard failures fail the run unless
// Options.AllowPartial promotes the outcome to a degraded merge.
// Cancelled runs return ctx's error with Report.Interrupted set; every
// in-process shard has flushed its checkpoint and every dispatched
// worker keeps its own.
func Run(ctx context.Context, spec *workload.Spec, n int, opts Options) (*Report, error) {
	if n < 1 {
		return nil, fmt.Errorf("fleet: shard count %d, want >= 1", n)
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("fleet: no spool directory")
	}
	if spec == nil {
		return nil, fmt.Errorf("fleet: nil spec")
	}
	if _, _, err := spec.Digests(); err != nil {
		return nil, fmt.Errorf("fleet: spec is not shardable: %w", err)
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = shard.OS()
	}
	if err := fsys.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("fleet: creating spool: %w", err)
	}
	c := &coord{spec: spec, n: n, opts: &opts, fsys: fsys}

	if len(opts.Workers) > 0 || (opts.Registry != nil && opts.Registry.Len() > 0) {
		data, err := spec.Encode()
		if err != nil {
			return nil, fmt.Errorf("fleet: encoding spec: %w", err)
		}
		c.data = data
		c.reg = opts.Registry
		if c.reg == nil {
			c.reg = NewRegistry(opts.Workers, RegistryConfig{
				PerWorker: opts.perWorker(),
				Breaker:   opts.Breaker,
				Logf:      opts.Logf,
			})
			if opts.ProbeInterval > 0 {
				pctx, pcancel := context.WithCancel(ctx)
				defer pcancel()
				c.reg.StartProbing(pctx, opts.ProbeInterval, opts.client())
			}
		} else {
			for _, w := range opts.Workers {
				c.reg.Add(w)
			}
		}
		// Wake registry waiters when the run is cancelled, so shards
		// blocked on a slot observe ctx promptly.
		stopWake := context.AfterFunc(ctx, c.reg.wakeAll)
		defer stopWake()
	} else {
		c.slots = make(chan struct{}, min(n, runtime.GOMAXPROCS(0)))
	}

	report := &Report{Shards: make([]ShardState, n)}
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			report.Shards[k] = c.runShard(ctx, k)
		}(k)
	}
	wg.Wait()
	report.Dispatches = c.dispatches.Load()
	report.Retries = c.retries.Load()
	report.Speculations = c.speculations.Load()
	report.Quarantines = c.quarantines.Load()
	report.Deferrals = c.deferrals.Load()
	if c.reg != nil {
		report.Workers = c.reg.Snapshot()
	}

	if err := ctx.Err(); err != nil {
		report.Interrupted = true
		opts.logf("fleet: interrupted; checkpoints flushed and completed partials spooled, rerun to resume")
		return report, err
	}

	var failed []error
	paths := make([]string, n)
	for k := range report.Shards {
		st := &report.Shards[k]
		if !st.Completed {
			failed = append(failed, st.Err)
		}
		paths[k] = st.Path
	}
	if len(failed) == 0 {
		curve, err := shard.MergeFiles(paths...)
		if err != nil {
			return report, fmt.Errorf("fleet: final merge: %w", err)
		}
		report.Curve = curve
		return report, nil
	}
	if !opts.AllowPartial {
		// Wrapping the joined shard errors keeps the sentinels reachable:
		// errors.Is(err, ErrRetriesExhausted) and errors.Is(err,
		// ErrNoWorkers) hold at the run level.
		return report, fmt.Errorf("fleet: %d of %d shards failed permanently (rerun to retry, or use -allow-partial for an annotated degraded merge): %w",
			len(failed), n, errors.Join(failed...))
	}
	degraded, err := shard.MergeDegradedReadable(func(path string, err error) {
		opts.logf("fleet: degraded merge skips %s: %v", path, err)
	}, paths...)
	if err != nil {
		return report, err
	}
	report.Degraded = degraded
	opts.logf("fleet: degraded merge covers %d of %d indices (%.2f%%); missing shards %v, incomplete %v",
		degraded.CoveredIndices, degraded.Items, 100*degraded.CoveredFraction,
		degraded.MissingShards, degraded.IncompleteShards)
	return report, nil
}

// runShard drives one shard through its transport's attempts, backoff
// and quarantine until it completes, exhausts its retry budget, or the
// run context is cancelled.
func (c *coord) runShard(ctx context.Context, k int) ShardState {
	plan := shard.Plan{Index: k, Count: c.n}
	st := ShardState{Plan: plan, Path: supervise.ShardPath(c.opts.Dir, k, c.n)}
	job, err := c.spec.Compile(plan, c.opts.Exec)
	if err != nil {
		st.Err = fmt.Errorf("fleet: compiling shard %s: %w", plan, err)
		return st
	}
	if c.opts.wrapJob != nil {
		c.opts.wrapJob(&job)
	}
	// One transport's attempt fills the shard's spool slot or returns why
	// not, plus the worker to avoid on the retry.
	attempt := c.runLocal
	if c.reg != nil {
		if c.inspectSlot(&st, &job) {
			return st
		}
		attempt = c.dispatch
	}
	backoff := supervise.NewBackoff(c.opts.MaxRetries, c.opts.BaseBackoff, c.opts.MaxBackoff, c.opts.JitterSeed, k)

	avoid := ""
	for try := 0; ; {
		worker, aerr := attempt(ctx, &st, &job, avoid)
		if aerr == nil {
			st.Completed = true
			st.Worker = worker
			return st
		}
		if ctx.Err() != nil {
			// Run cancellation (signal or caller deadline): not a shard
			// failure — the slot stays resumable.
			st.Err = ctx.Err()
			return st
		}
		var perm *PermanentError
		if errors.Is(aerr, ErrNoWorkers) || errors.Is(aerr, errNotRetryable) || errors.As(aerr, &perm) {
			// An emptied membership, a cancellation from inside the
			// derivation, or a deterministic rejection: retrying cannot
			// help, so fail without burning the budget.
			st.Err = fmt.Errorf("fleet: shard %s: %w", plan, aerr)
			return st
		}
		// A Retry-After deferral already held the worker (coord.record);
		// retry elsewhere immediately without burning budget or backing
		// off — bounded so perpetual deferrals still terminate.
		var ra *RetryAfterError
		if errors.As(aerr, &ra) && st.Deferred < maxShardDeferrals {
			st.Deferred++
			c.deferrals.Add(1)
			c.opts.logf("fleet: shard %s deferred by %s for %v; retrying elsewhere", plan, ra.Worker, ra.After)
			avoid = ""
			continue
		}
		if try >= backoff.Retries {
			st.Err = fmt.Errorf("fleet: shard %s failed after %d attempts: %w: %w", plan, st.Dispatches, ErrRetriesExhausted, aerr)
			return st
		}
		avoid = worker
		if c.reg != nil {
			c.retries.Add(1)
		}
		delay := backoff.Delay(try)
		try++
		c.opts.logf("fleet: shard %s attempt %d failed (%v); retrying in %v", plan, st.Dispatches, aerr, delay)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			st.Err = ctx.Err()
			return st
		}
	}
}

// runLocal is the in-process transport's attempt: RunSlot straight into
// the spool slot under a local execution slot and the attempt deadline.
func (c *coord) runLocal(ctx context.Context, st *ShardState, job *shard.Job, _ string) (string, error) {
	select {
	case c.slots <- struct{}{}:
	case <-ctx.Done():
		return "", ctx.Err()
	}
	defer func() { <-c.slots }()
	actx, cancel := ctx, context.CancelFunc(func() {})
	if c.opts.AttemptTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.opts.AttemptTimeout)
	}
	st.Dispatches++
	rs, qpath, err := RunSlot(actx, *job, shard.RunOptions{
		Path:            st.Path,
		CheckpointEvery: c.opts.CheckpointEvery,
		OnCheckpoint:    c.opts.OnCheckpoint,
		FS:              c.fsys,
	})
	// Whether this attempt's own deadline fired must be read before
	// cancel() below, which would overwrite actx.Err with Canceled.
	timedOut := c.opts.AttemptTimeout > 0 && actx.Err() != nil && ctx.Err() == nil
	cancel()
	st.Evaluated += rs.Evaluated
	if qpath != "" {
		st.Quarantined = append(st.Quarantined, qpath)
		c.opts.logf("fleet: shard %s: quarantined corrupt checkpoint to %s, re-deriving", job.Plan, qpath)
	}
	if err == nil {
		_, hi := job.Plan.Slice(job.Items)
		st.Resumed = rs.Resumed && rs.ResumedFrom == hi
		return "", nil
	}
	if !timedOut && ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return "", fmt.Errorf("%w: %w", errNotRetryable, err)
	}
	return "", err
}

// RunSlot is the in-process transport's attempt at one shard slice:
// shard.Run of job into ropts.Path. When the slot holds a corrupt or
// foreign checkpoint, that file is quarantined to the first free
// "<path>.corrupt[.N]" name (through ropts.FS) and the slice re-derived
// from scratch. It returns the run's statistics — Evaluated summed over
// both runs — and the quarantine path, if any. serve's POST /v1/shard
// worker runs its slices through it too.
func RunSlot(ctx context.Context, job shard.Job, ropts shard.RunOptions) (shard.RunStats, string, error) {
	_, rs, err := shard.Run(ctx, job, ropts)
	if !errors.Is(err, shard.ErrCorruptPartial) && !errors.Is(err, shard.ErrForeignPartial) {
		return rs, "", err
	}
	qpath, qerr := shard.Quarantine(ropts.FS, ropts.Path, ropts.Path+".corrupt")
	if qerr != nil {
		return rs, "", fmt.Errorf("fleet: cannot quarantine corrupt checkpoint %s: %w (cause: %v)", ropts.Path, qerr, err)
	}
	evaluated := rs.Evaluated
	_, rs, err = shard.Run(ctx, job, ropts)
	rs.Evaluated += evaluated
	return rs, qpath, err
}

// inspectSlot honors spooled work before the first dispatch: a complete
// compatible partial is a previous run's result (Resumed); a corrupt or
// foreign one is quarantined so this run's winner can land cleanly; an
// incomplete compatible one — an in-process checkpoint — is left for
// the winner's atomic write to replace. It reports whether the shard is
// already settled (resumed, or failed because the slot is unreadable).
func (c *coord) inspectSlot(st *ShardState, job *shard.Job) bool {
	expected := expectedManifest(job)
	switch prev, err := shard.ReadPartialFS(c.fsys, st.Path); {
	case err == nil:
		if cerr := expected.CompatibleWith(&prev.Manifest); cerr == nil &&
			prev.Manifest.ShardIndex == st.Plan.Index && prev.Manifest.Complete() {
			st.Completed, st.Resumed = true, true
			return true
		} else if cerr != nil || prev.Manifest.ShardIndex != st.Plan.Index {
			c.quarantineFile(st, "foreign spool partial")
		}
	case errors.Is(err, fs.ErrNotExist):
	case errors.Is(err, shard.ErrCorruptPartial):
		c.quarantineFile(st, "corrupt spool partial")
	default:
		st.Err = fmt.Errorf("fleet: inspecting spool partial %s: %w", st.Path, err)
		return true
	}
	return false
}

// dispatch is the HTTP transport's attempt: one retry round of
// dispatches (attemptWithSpeculation), then the validated winning
// response written atomically into the spool slot. A failed spool write
// leaves no file at the slot and is retried like any failed attempt.
func (c *coord) dispatch(ctx context.Context, st *ShardState, job *shard.Job, avoid string) (string, error) {
	expected := expectedManifest(job)
	data, worker, err := c.attemptWithSpeculation(ctx, st, job.Plan, &expected, avoid)
	if err != nil {
		return worker, err
	}
	if err := shard.WriteFileAtomic(c.fsys, st.Path, data); err != nil {
		return "", fmt.Errorf("fleet: spooling shard %s: %w", job.Plan, err)
	}
	st.Evaluated = expected.RangeHi - expected.RangeLo
	return worker, nil
}

// attemptResult is one dispatch's outcome.
type attemptResult struct {
	data   []byte // validated partial-frontier file bytes
	worker string
	qpath  string // quarantine file holding an invalid response, if any
	err    error
}

// attemptWithSpeculation runs one retry round: a primary dispatch, plus —
// after Options.SpeculateAfter with no result yet — at most one
// speculative duplicate on an idle different worker. The first valid
// response wins (the duplicate's context is cancelled; its late response
// is discarded). Returns the winning response bytes and worker, or —
// when every launched dispatch failed — the last failed worker and the
// first error.
func (c *coord) attemptWithSpeculation(ctx context.Context, st *ShardState, plan shard.Plan, expected *shard.Manifest, avoid string) ([]byte, string, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	primary, err := c.reg.acquire(actx, avoid)
	if err != nil {
		return nil, "", err
	}
	results := make(chan attemptResult, 2)
	inFlight := map[string]bool{primary: true}
	launch := func(worker string) {
		st.Dispatches++
		c.dispatches.Add(1)
		go func() {
			defer c.reg.release(worker)
			start := time.Now()
			data, qpath, aerr := c.post(actx, st.Path, plan, expected, worker)
			// Health accounting happens here, in the dispatch goroutine, so
			// speculation losers' outcomes reach the breaker and the
			// throughput estimate too.
			c.record(worker, time.Since(start), aerr)
			results <- attemptResult{data: data, worker: worker, qpath: qpath, err: aerr}
		}()
	}
	launch(primary)

	var spec <-chan time.Time
	if c.opts.SpeculateAfter > 0 {
		t := time.NewTimer(c.opts.SpeculateAfter)
		defer t.Stop()
		spec = t.C
	}
	var firstErr error
	lastWorker := primary
	pending := 1
	for {
		select {
		case r := <-results:
			pending--
			if r.qpath != "" {
				st.Quarantined = append(st.Quarantined, r.qpath)
			}
			if r.err == nil {
				return r.data, r.worker, nil
			}
			lastWorker = r.worker
			if firstErr == nil {
				firstErr = r.err
			}
			if pending == 0 {
				return nil, lastWorker, firstErr
			}
		case <-spec:
			spec = nil
			if w, ok := c.reg.tryAcquire(inFlight); ok {
				inFlight[w] = true
				pending++
				st.Speculated++
				c.speculations.Add(1)
				c.opts.logf("fleet: shard %s straggling; speculating on %s", plan, w)
				launch(w)
			}
		case <-ctx.Done():
			return nil, lastWorker, ctx.Err()
		}
	}
}

// quarantineFile moves the shard's spool slot aside to the first free
// "<path>.corrupt[.N]" name, recording it in the shard state.
func (c *coord) quarantineFile(st *ShardState, why string) {
	qpath, err := shard.Quarantine(c.fsys, st.Path, st.Path+".corrupt")
	if err != nil {
		c.opts.logf("fleet: cannot quarantine %s (%s): %v", st.Path, why, err)
		return
	}
	st.Quarantined = append(st.Quarantined, qpath)
	c.quarantines.Add(1)
	c.opts.logf("fleet: quarantined %s (%s) to %s", st.Path, why, qpath)
}

// expectedManifest builds the manifest every response for this shard
// must be compatible with — the same construction shard.Run stamps into
// checkpoints, derived locally so validation never trusts the wire.
func expectedManifest(job *shard.Job) shard.Manifest {
	lo, hi := job.Plan.Slice(job.Items)
	return shard.Manifest{
		FormatVersion:    shard.FormatVersion,
		Engine:           shard.Engine,
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
}
