package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/fusion"
	"repro/internal/shard"
	"repro/internal/workload"
)

// testChain builds the small two-op chain the worker tests use.
func testChain(t *testing.T) *fusion.Chain {
	t.Helper()
	c, err := fusion.NewChain("ffn", 64,
		fusion.GEMMOp("mm_0", 64, 32, 48),
		fusion.GEMMOp("mm_1", 64, 48, 16))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// postShard sends a raw body to /v1/shard and returns status + response.
func postShard(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// shardBody builds a ShardRequest body for a spec.
func shardBody(t *testing.T, spec *workload.Spec, k, n int) []byte {
	t.Helper()
	raw, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(ShardRequest{Spec: raw, ShardIndex: k, ShardCount: n})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestWorkerShardRoundTrip drives the worker endpoint directly: both
// shards of a 2-way bound plan come back as valid, complete partials
// whose merge is byte-identical to the single-process curve.
func TestWorkerShardRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{WorkerDir: t.TempDir()})
	e := einsum.GEMM("gemm_32x24x16", 32, 24, 16)
	spec := workload.NewBound(e, bound.Options{})

	var partials []*shard.Partial
	for k := 0; k < 2; k++ {
		status, data := postShard(t, ts.URL, shardBody(t, spec, k, 2))
		if status != http.StatusOK {
			t.Fatalf("shard %d: status %d: %s", k, status, data)
		}
		var p shard.Partial
		if err := json.Unmarshal(data, &p); err != nil {
			t.Fatalf("shard %d: parsing partial: %v", k, err)
		}
		if err := p.Manifest.Validate(); err != nil {
			t.Fatalf("shard %d: invalid manifest: %v", k, err)
		}
		if !p.Manifest.Complete() {
			t.Fatalf("shard %d: incomplete partial (through %d of [%d, %d))",
				k, p.Manifest.CompletedThrough, p.Manifest.RangeLo, p.Manifest.RangeHi)
		}
		partials = append(partials, &p)
	}

	merged, err := shard.Merge(partials...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(bound.Derive(e, bound.Options{Workers: 2}).Curve)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("merged worker shards differ from bound.Derive\n got %s\nwant %s", got, want)
	}
}

// TestWorkerUnknownKindIs400 is the regression test for the structured
// rejection of unregistered spec kinds: a 400 invalid_workload naming
// the registered alternatives, never a 500 out of panic containment.
func TestWorkerUnknownKindIs400(t *testing.T) {
	s, ts := newTestServer(t, Config{WorkerDir: t.TempDir()})
	body := []byte(`{"spec":{"kind":"nonsense"},"shard_index":0,"shard_count":2}`)
	status, data := postShard(t, ts.URL, body)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", status, data)
	}
	ei := decodeError(t, data)
	if ei.Code != "invalid_workload" {
		t.Fatalf("code %q, want invalid_workload: %s", ei.Code, data)
	}
	if !strings.Contains(ei.Message, "nonsense") {
		t.Fatalf("message does not name the unknown kind: %s", ei.Message)
	}
	if !strings.Contains(ei.Message, string(shard.KindBound)) {
		t.Fatalf("message does not name registered kinds: %s", ei.Message)
	}
	if got := s.Snapshot().PanicsRecovered; got != 0 {
		t.Fatalf("unknown kind tripped panic containment (%d panics recovered)", got)
	}
}

// TestWorkerEndpointValidation covers the remaining request rejections:
// endpoint disabled, bad plan, missing spec, unknown request field,
// unmaterialized spec, and format-version negotiation.
func TestWorkerEndpointValidation(t *testing.T) {
	e := einsum.GEMM("gemm_32x24x16", 32, 24, 16)
	spec := workload.NewBound(e, bound.Options{})

	t.Run("disabled", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		status, data := postShard(t, ts.URL, shardBody(t, spec, 0, 2))
		if status != http.StatusNotFound {
			t.Fatalf("status %d, want 404: %s", status, data)
		}
		if ei := decodeError(t, data); ei.Code != "worker_disabled" {
			t.Fatalf("code %q, want worker_disabled", ei.Code)
		}
	})

	_, ts := newTestServer(t, Config{WorkerDir: t.TempDir()})

	t.Run("bad plan", func(t *testing.T) {
		status, data := postShard(t, ts.URL, shardBody(t, spec, 7, 2))
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", status, data)
		}
	})
	t.Run("missing spec", func(t *testing.T) {
		status, data := postShard(t, ts.URL, []byte(`{"shard_index":0,"shard_count":2}`))
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", status, data)
		}
	})
	t.Run("unknown field", func(t *testing.T) {
		status, data := postShard(t, ts.URL, []byte(`{"shard_index":0,"shard_count":2,"bogus":1}`))
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", status, data)
		}
		if ei := decodeError(t, data); ei.Code != "invalid_request" {
			t.Fatalf("code %q, want invalid_request", ei.Code)
		}
	})
	t.Run("unmaterialized segmentation", func(t *testing.T) {
		c := testChain(t)
		raw, err := workload.NewSegmentation(c, nil).Encode()
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(ShardRequest{Spec: raw, ShardIndex: 0, ShardCount: 2})
		if err != nil {
			t.Fatal(err)
		}
		status, data := postShard(t, ts.URL, body)
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", status, data)
		}
		if ei := decodeError(t, data); ei.Code != "invalid_workload" {
			t.Fatalf("code %q, want invalid_workload: %s", ei.Code, data)
		}
	})
	t.Run("version negotiation", func(t *testing.T) {
		raw, err := spec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(ShardRequest{Spec: raw, ShardIndex: 0, ShardCount: 2, MaxFormatVersion: shard.FormatVersion - 1})
		if err != nil {
			t.Fatal(err)
		}
		status, data := postShard(t, ts.URL, body)
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", status, data)
		}
		if ei := decodeError(t, data); ei.Code != "unsupported_version" {
			t.Fatalf("code %q, want unsupported_version: %s", ei.Code, data)
		}
		body, err = json.Marshal(ShardRequest{Spec: raw, ShardIndex: 0, ShardCount: 2, MaxFormatVersion: shard.FormatVersion})
		if err != nil {
			t.Fatal(err)
		}
		if status, data := postShard(t, ts.URL, body); status != http.StatusOK {
			t.Fatalf("current version rejected: %d: %s", status, data)
		}
	})
}

// TestWorkerDrainingRejectsShards pins the drain contract on the worker
// endpoint: once draining, dispatches get 503 so coordinators retry
// elsewhere.
func TestWorkerDrainingRejectsShards(t *testing.T) {
	s, ts := newTestServer(t, Config{WorkerDir: t.TempDir()})
	s.draining.Store(true)
	e := einsum.GEMM("gemm_32x24x16", 32, 24, 16)
	status, data := postShard(t, ts.URL, shardBody(t, workload.NewBound(e, bound.Options{}), 0, 2))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", status, data)
	}
	if ei := decodeError(t, data); ei.Code != "draining" {
		t.Fatalf("code %q, want draining", ei.Code)
	}
}

// TestWorkerStatsCount pins the worker counters: every /v1/shard request
// counts, and completed slices count separately.
func TestWorkerStatsCount(t *testing.T) {
	s, ts := newTestServer(t, Config{WorkerDir: t.TempDir()})
	e := einsum.GEMM("gemm_32x24x16", 32, 24, 16)
	spec := workload.NewBound(e, bound.Options{})
	if status, data := postShard(t, ts.URL, shardBody(t, spec, 0, 2)); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	postShard(t, ts.URL, []byte(`not json`))
	st := s.Snapshot()
	if st.WorkerRequests != 2 {
		t.Fatalf("worker_requests %d, want 2", st.WorkerRequests)
	}
	if st.WorkerShards != 1 {
		t.Fatalf("worker_shards %d, want 1", st.WorkerShards)
	}
}

// TestWorkerQuarantinesEachCorruptCheckpoint: a corrupt checkpoint
// planted before each of two dispatches of the same shard is quarantined
// to a fresh generation each time (<path>.corrupt, then .corrupt.1), so
// the second quarantine never overwrites the first's evidence, and both
// responses are byte-identical to a clean worker's.
func TestWorkerQuarantinesEachCorruptCheckpoint(t *testing.T) {
	e := einsum.GEMM("gemm_32x24x16", 32, 24, 16)
	spec := workload.NewBound(e, bound.Options{})
	plan := shard.Plan{Index: 1, Count: 2}
	body := shardBody(t, spec, plan.Index, plan.Count)

	_, clean := newTestServer(t, Config{WorkerDir: t.TempDir()})
	status, want := postShard(t, clean.URL, body)
	if status != http.StatusOK {
		t.Fatalf("clean dispatch: status %d: %s", status, want)
	}

	s, ts := newTestServer(t, Config{WorkerDir: t.TempDir()})
	job, err := spec.Compile(plan, workload.Exec{Workers: s.cfg.Workers})
	if err != nil {
		t.Fatal(err)
	}
	path := s.workerShardPath(&job, plan)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 2; gen++ {
		if err := os.WriteFile(path, []byte(fmt.Sprintf("torn checkpoint %d", gen)), 0o644); err != nil {
			t.Fatal(err)
		}
		status, got := postShard(t, ts.URL, body)
		if status != http.StatusOK {
			t.Fatalf("dispatch %d: status %d: %s", gen, status, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("dispatch %d over a corrupt checkpoint differs from a clean run\n got %s\nwant %s", gen, got, want)
		}
	}
	for gen, name := range []string{path + ".corrupt", path + ".corrupt.1"} {
		if got, err := os.ReadFile(name); err != nil || string(got) != fmt.Sprintf("torn checkpoint %d", gen) {
			t.Fatalf("quarantine %s holds %q (err %v), want torn checkpoint %d", name, got, err, gen)
		}
	}
}

// gateFS holds the first checkpoint write whose temp-file pattern starts
// with prefix until release is closed, closing reached when it arrives.
type gateFS struct {
	shard.FS
	prefix           string
	reached, release chan struct{}
	once             sync.Once
}

func (g *gateFS) CreateTemp(dir, pattern string) (shard.File, error) {
	if strings.HasPrefix(pattern, g.prefix) {
		g.once.Do(func() {
			close(g.reached)
			<-g.release
		})
	}
	return g.FS.CreateTemp(dir, pattern)
}

// TestWorkerSiblingShardKeepsDigestDir is the regression test for the
// digest-directory cleanup race: shard 1 of a derivation completes (and
// cleans up) while shard 2 of the same derivation, on the same worker,
// has derived its slice but not yet written its first checkpoint. The
// directory shard 2 is about to write into must survive, and shard 2
// must still succeed; the directory goes once both have left.
func TestWorkerSiblingShardKeepsDigestDir(t *testing.T) {
	gate := &gateFS{
		FS:      shard.OS(),
		prefix:  "shard-2-of-2.json",
		reached: make(chan struct{}),
		release: make(chan struct{}),
	}
	workerDir := t.TempDir()
	_, ts := newTestServer(t, Config{WorkerDir: workerDir, MaxConcurrent: 2, shardFS: gate})
	e := einsum.GEMM("gemm_32x24x16", 32, 24, 16)
	spec := workload.NewBound(e, bound.Options{})

	type reply struct {
		status int
		data   []byte
		err    error
	}
	body := shardBody(t, spec, 1, 2)
	second := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/shard", "application/json", bytes.NewReader(body))
		if err != nil {
			second <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		second <- reply{resp.StatusCode, data, err}
	}()
	select {
	case <-gate.reached:
	case r := <-second:
		close(gate.release)
		t.Fatalf("shard 2 answered before its first checkpoint write: %d %s (%v)", r.status, r.data, r.err)
	}

	status, data := postShard(t, ts.URL, shardBody(t, spec, 0, 2))
	close(gate.release)
	if status != http.StatusOK {
		t.Fatalf("shard 1: status %d: %s", status, data)
	}
	r := <-second
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("shard 2 after its sibling's cleanup: status %d: %s", r.status, r.data)
	}
	var p shard.Partial
	if err := json.Unmarshal(r.data, &p); err != nil {
		t.Fatal(err)
	}
	if !p.Manifest.Complete() {
		t.Fatal("shard 2 returned an incomplete partial")
	}
	left, err := os.ReadDir(workerDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("worker directory keeps %d entries after both shards, want none", len(left))
	}
}
