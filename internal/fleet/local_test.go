package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/pareto"
	"repro/internal/shard"
	"repro/internal/supervise"
	"repro/internal/workload"
)

// localOpts configures an in-process run (no workers) with the retry
// schedule shortened so fault-injection tests finish in milliseconds.
func localOpts(dir string) Options {
	return Options{
		Dir:             dir,
		CheckpointEvery: 7,
		BaseBackoff:     time.Millisecond,
		MaxBackoff:      2 * time.Millisecond,
		JitterSeed:      1,
		Exec:            workload.Exec{Workers: 2},
	}
}

func curveJSON(t *testing.T, c *pareto.Curve) string {
	t.Helper()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLocalParityWithTransientFaults: for N in {2, 4, 8}, an in-process
// run with two injected transient sync failures merges to the curve
// byte-identical to the single-process derivation, absorbing each
// failure with exactly one retry, and leaves the HTTP counters alone.
func TestLocalParityWithTransientFaults(t *testing.T) {
	want := wantCurve(t)
	errDisk := errors.New("injected transient disk fault")
	for _, n := range []int{2, 4, 8} {
		opts := localOpts(t.TempDir())
		opts.FS = &shard.FaultFS{Fail: shard.FailN(shard.OpSync, 2, errDisk)}
		report, err := Run(context.Background(), testSpec(), n, opts)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if report.Curve == nil || report.Degraded != nil {
			t.Fatalf("N=%d: expected an exact merge, got %+v", n, report)
		}
		if got := curveJSON(t, report.Curve); got != want {
			t.Fatalf("N=%d: in-process curve differs from single-process derive\n got %s\nwant %s", n, got, want)
		}
		attempts := 0
		for _, st := range report.Shards {
			if !st.Completed {
				t.Fatalf("N=%d: shard %s not completed: %v", n, st.Plan, st.Err)
			}
			attempts += st.Dispatches
		}
		if attempts != n+2 {
			t.Fatalf("N=%d: %d attempts, want %d (one per shard plus one per injected fault)", n, attempts, n+2)
		}
		if report.Dispatches != 0 || report.Retries != 0 || report.Workers != nil {
			t.Fatalf("N=%d: in-process run moved the HTTP counters: %+v", n, report)
		}
	}
}

// TestLocalInterruptThenResume simulates a mid-run SIGTERM (parent
// context cancellation — exactly what signal.NotifyContext delivers):
// the run reports interruption with flushed checkpoints, and rerunning
// completes to the byte-identical curve, counting only new work.
func TestLocalInterruptThenResume(t *testing.T) {
	want := wantCurve(t)
	fresh, err := Run(context.Background(), testSpec(), 4, localOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var flushes atomic.Int64
	opts := localOpts(dir)
	opts.OnCheckpoint = func(shard.Manifest) {
		if flushes.Add(1) == 3 {
			cancel()
		}
	}
	report, err := Run(ctx, testSpec(), 4, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !report.Interrupted {
		t.Fatal("report does not mark the run interrupted")
	}
	if report.Curve != nil || report.Degraded != nil {
		t.Fatal("interrupted run still emitted a merged curve")
	}
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, rerr := shard.ReadPartial(f); rerr != nil {
			t.Fatalf("checkpoint %s unreadable after interrupt: %v", f, rerr)
		}
	}

	// "Rerun the same command": same dir, fresh context.
	report, err = Run(context.Background(), testSpec(), 4, localOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := curveJSON(t, report.Curve); got != want {
		t.Fatalf("interrupt+resume curve differs from single-process derive\n got %s\nwant %s", got, want)
	}
	if got, all := evaluated(report), evaluated(fresh); got >= all {
		t.Fatalf("resumed run evaluated %d points, a fresh run %d: checkpointed work was redone", got, all)
	}
}

func evaluated(r *Report) (n int64) {
	for _, st := range r.Shards {
		n += st.Evaluated
	}
	return n
}

// TestLocalQuarantinesCorruptCheckpoints drives the corruption matrix:
// for every corruption class, the poisoned slot is quarantined (renamed
// aside, evidence intact), the shard re-derived, and the merged curve
// still exact.
func TestLocalQuarantinesCorruptCheckpoints(t *testing.T) {
	want := wantCurve(t)
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{
			name: "garbage-bytes",
			corrupt: func(t *testing.T, path string) {
				if err := os.WriteFile(path, []byte("{\"manifest\": tor"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "foreign-derivation",
			corrupt: func(t *testing.T, path string) {
				// A structurally valid partial of different options.
				other := workload.NewBound(einsum.GEMM("gemm_32x24x16", 32, 24, 16), bound.Options{ImperfectExtra: 2})
				job, err := other.Compile(shard.Plan{Index: 1, Count: 3}, workload.Exec{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := shard.Run(context.Background(), job, shard.RunOptions{Path: path}); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.corrupt(t, supervise.ShardPath(dir, 1, 3))
			report, err := Run(context.Background(), testSpec(), 3, localOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			st := report.Shards[1]
			if len(st.Quarantined) != 1 {
				t.Fatalf("shard 2/3 quarantined %v, want exactly one file", st.Quarantined)
			}
			if !strings.Contains(st.Quarantined[0], ".corrupt") {
				t.Fatalf("quarantine name %q lacks the .corrupt suffix", st.Quarantined[0])
			}
			if _, serr := os.Stat(st.Quarantined[0]); serr != nil {
				t.Fatalf("quarantined evidence missing: %v", serr)
			}
			if got := curveJSON(t, report.Curve); got != want {
				t.Fatalf("post-quarantine curve differs from single-process derive\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestLocalDegradedMerge: a permanently failing shard either fails the
// whole run, with a refusal naming the -allow-partial escape hatch, or —
// under AllowPartial — degrades to an annotated merge carrying the
// covered index fraction.
func TestLocalDegradedMerge(t *testing.T) {
	dir := t.TempDir()
	opts := localOpts(dir)
	opts.MaxRetries = -1
	opts.wrapJob = func(job *shard.Job) {
		if job.Plan.Index == 1 {
			job.Derive = func(context.Context, int64, int64) (*pareto.Curve, int64, error) {
				return nil, 0, errors.New("permanently broken shard")
			}
		}
	}
	if _, err := Run(context.Background(), testSpec(), 4, opts); err == nil {
		t.Fatal("run succeeded with a permanently failing shard and no AllowPartial")
	} else if !strings.Contains(err.Error(), "allow-partial") {
		t.Fatalf("refusal does not mention the -allow-partial escape hatch: %v", err)
	}

	opts.AllowPartial = true
	report, err := Run(context.Background(), testSpec(), 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Curve != nil {
		t.Fatal("degraded run also emitted an exact curve")
	}
	d := report.Degraded
	if d == nil {
		t.Fatal("AllowPartial run emitted no degraded merge")
	}
	if d.Complete() || d.CoveredFraction >= 1 {
		t.Fatalf("degraded merge claims completeness: %+v", d)
	}
	if len(d.MissingShards) != 1 || d.MissingShards[0] != 1 {
		t.Fatalf("missing shards %v, want [1]", d.MissingShards)
	}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"degraded":true`) || !strings.Contains(string(data), `"covered_fraction"`) {
		t.Fatalf("degraded envelope lacks its annotations: %s", data)
	}
}

// TestRunValidatesOptions: bad shard counts and a missing directory are
// refused up front.
func TestRunValidatesOptions(t *testing.T) {
	if _, err := Run(context.Background(), testSpec(), 0, localOpts(t.TempDir())); err == nil {
		t.Fatal("accepted zero shards")
	}
	if _, err := Run(context.Background(), testSpec(), 2, Options{}); err == nil {
		t.Fatal("accepted an empty spool directory")
	}
}

// TestLocalCancelledDeriveNotRetried: a derivation that reports
// context.Canceled / DeadlineExceeded without the run's context or the
// attempt timeout being the cause is external intent, not a transient
// fault — the shard must fail after exactly one attempt instead of
// burning its whole retry budget.
func TestLocalCancelledDeriveNotRetried(t *testing.T) {
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		opts := localOpts(t.TempDir())
		opts.MaxRetries = 5
		opts.wrapJob = func(job *shard.Job) {
			job.Derive = func(context.Context, int64, int64) (*pareto.Curve, int64, error) {
				return nil, 0, fmt.Errorf("inner run gave up: %w", cause)
			}
		}
		report, err := Run(context.Background(), testSpec(), 2, opts)
		if err == nil {
			t.Fatalf("cause=%v: run succeeded with a permanently cancelled derive", cause)
		}
		for _, st := range report.Shards {
			if st.Dispatches != 1 {
				t.Fatalf("cause=%v: shard %s took %d attempts, want 1 (zero retries after cancellation)",
					cause, st.Plan, st.Dispatches)
			}
			if !errors.Is(st.Err, cause) {
				t.Fatalf("cause=%v: shard %s error %v does not wrap the cancellation", cause, st.Plan, st.Err)
			}
		}
	}
}

// TestLocalAttemptTimeoutStillRetried guards the boundary of the
// non-retryable rule: an attempt cancelled by its own AttemptTimeout
// also surfaces as a context error, but that one IS the retry mechanism
// for slow shards — progress is monotonic across attempts via the
// checkpoint, so the shard must be retried and converge.
func TestLocalAttemptTimeoutStillRetried(t *testing.T) {
	var calls atomic.Int64
	opts := localOpts(t.TempDir())
	opts.AttemptTimeout = 50 * time.Millisecond
	opts.wrapJob = func(job *shard.Job) {
		inner := job.Derive
		job.Derive = func(ctx context.Context, lo, hi int64) (*pareto.Curve, int64, error) {
			if calls.Add(1) == 1 {
				// The first block stalls past the attempt timeout, honoring
				// its context like a real traversal.
				<-ctx.Done()
				return nil, 0, ctx.Err()
			}
			return inner(ctx, lo, hi)
		}
	}
	report, err := Run(context.Background(), testSpec(), 2, opts)
	if err != nil {
		t.Fatalf("attempt-timeout run did not converge: %v", err)
	}
	total := 0
	for _, st := range report.Shards {
		total += st.Dispatches
	}
	if total < 3 {
		t.Fatalf("%d total attempts, want >= 3 (the timed-out attempt must have been retried)", total)
	}
	if curveJSON(t, report.Curve) != wantCurve(t) {
		t.Fatal("post-timeout-retry curve differs from single-process derive")
	}
}

// completeSlots lists the shard indices whose spool slot holds a
// complete partial.
func completeSlots(t *testing.T, dir string, n int) map[int]bool {
	t.Helper()
	done := map[int]bool{}
	for k := 0; k < n; k++ {
		if p, err := shard.ReadPartial(supervise.ShardPath(dir, k, n)); err == nil && p.Manifest.Complete() {
			done[k] = true
		}
	}
	return done
}

// assertResumedExactly checks a finishing run against the spool the
// interrupted run left: exactly its complete shards come back Resumed,
// and the merged curve is byte-identical to the single-process one.
func assertResumedExactly(t *testing.T, report *Report, done map[int]bool) {
	t.Helper()
	if len(done) == 0 {
		t.Fatal("the interrupted run completed no shard; nothing to resume")
	}
	for k, st := range report.Shards {
		if st.Resumed != done[k] {
			t.Fatalf("shard %s resumed=%v, but its slot complete=%v", st.Plan, st.Resumed, done[k])
		}
	}
	if got := curveJSON(t, report.Curve); got != wantCurve(t) {
		t.Fatalf("cross-transport resume curve differs from single-process derive\n got %s", got)
	}
}

// TestCrossTransportResume pins the one spool contract both transports
// share (and serve.ResumeOrphans relies on when fleet membership changes
// between server lives): a spool left by an interrupted in-process run
// is finished by an HTTP run against a loopback worker, and the reverse.
func TestCrossTransportResume(t *testing.T) {
	const n = 4
	t.Run("local-then-http", func(t *testing.T) {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var completed atomic.Int64
		opts := localOpts(dir)
		opts.OnCheckpoint = func(m shard.Manifest) {
			if m.Complete() && completed.Add(1) == 2 {
				cancel()
			}
		}
		if _, err := Run(ctx, testSpec(), n, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted in-process run: err = %v, want context.Canceled", err)
		}
		done := completeSlots(t, dir, n)

		worker := newWorker(t, nil)
		report, err := Run(context.Background(), testSpec(), n, Options{Workers: []string{worker.URL}, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		assertResumedExactly(t, report, done)
		assertCleanSpool(t, dir)
	})

	t.Run("http-then-local", func(t *testing.T) {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Shards 1 and 2 answer; shards 3 and 4 hang until the coordinator
		// hangs up, which it does once the first two are spooled.
		worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			req := decodeShardRequest(t, r)
			if req.ShardIndex >= 2 {
				// Drain the body so the hang-up is observable.
				io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				return
			}
			data, err := deriveShardBytes(r.Context(), t.TempDir(), req)
			if err != nil {
				http.Error(w, `{"error":{"code":"internal","message":"test worker failed"}}`, http.StatusInternalServerError)
				return
			}
			w.Write(data)
		}))
		defer worker.Close()
		// Each spooled response ends with the directory sync of its atomic
		// write: the second one means shards 1 and 2 are in the spool.
		var spooled atomic.Int64
		report, err := Run(ctx, testSpec(), n, Options{
			Workers:   []string{worker.URL},
			Dir:       dir,
			PerWorker: n,
			FS: &shard.FaultFS{Fail: func(op shard.Op, _ string) error {
				if op == shard.OpSyncDir && spooled.Add(1) == 2 {
					cancel()
				}
				return nil
			}},
		})
		if !errors.Is(err, context.Canceled) || !report.Interrupted {
			t.Fatalf("interrupted HTTP run: err = %v", err)
		}
		done := completeSlots(t, dir, n)

		report, err = Run(context.Background(), testSpec(), n, localOpts(dir))
		if err != nil {
			t.Fatal(err)
		}
		assertResumedExactly(t, report, done)
		for k, st := range report.Shards {
			if done[k] && st.Evaluated != 0 {
				t.Fatalf("resumed shard %s evaluated %d points", st.Plan, st.Evaluated)
			}
		}
	})
}

// TestSpoolRenameFailure routes the HTTP transport's spool write through
// Options.FS: a failed rename of the validated response into the slot
// leaves no file at the slot (nor a temp beside it) and fails the shard
// with a named error, or — when transient — is retried to an exact merge.
func TestSpoolRenameFailure(t *testing.T) {
	errDisk := errors.New("injected rename fault")
	worker := newWorker(t, nil)
	t.Run("persistent", func(t *testing.T) {
		dir := t.TempDir()
		slot := supervise.ShardPath(dir, 0, 1)
		_, err := Run(context.Background(), testSpec(), 1, Options{
			Workers:    []string{worker.URL},
			Dir:        dir,
			MaxRetries: -1,
			FS: &shard.FaultFS{Fail: func(op shard.Op, path string) error {
				if op == shard.OpRename && path == slot {
					return errDisk
				}
				return nil
			}},
		})
		if !errors.Is(err, errDisk) || !strings.Contains(err.Error(), "spooling shard 1/1") {
			t.Fatalf("run error %v, want a named spooling failure wrapping the rename fault", err)
		}
		if _, serr := os.Stat(slot); !errors.Is(serr, os.ErrNotExist) {
			t.Fatalf("failed spool write left a file at the slot: %v", serr)
		}
		if temps, _ := filepath.Glob(slot + ".tmp*"); len(temps) != 0 {
			t.Fatalf("failed spool write left temps %v", temps)
		}
	})
	t.Run("transient", func(t *testing.T) {
		report, err := Run(context.Background(), testSpec(), 1, Options{
			Workers:     []string{worker.URL},
			Dir:         t.TempDir(),
			BaseBackoff: time.Millisecond,
			MaxBackoff:  2 * time.Millisecond,
			FS:          &shard.FaultFS{Fail: shard.FailN(shard.OpRename, 1, errDisk)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := report.Shards[0].Dispatches; got != 2 {
			t.Fatalf("%d dispatches, want 2 (the failed spool write retried once)", got)
		}
		if curveJSON(t, report.Curve) != wantCurve(t) {
			t.Fatal("curve after a retried spool write differs from single-process derive")
		}
	})
}
