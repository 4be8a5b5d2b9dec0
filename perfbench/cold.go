package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/supervise"
)

const (
	// coldSetupReps is how many times serve_cold times the start of its
	// four servers before each cycle of requests; setup_s is the median
	// over the run.
	coldSetupReps = 4
	// coldShards is the shard count of the sharded and fleet paths.
	coldShards = 4
)

// coldPaths are the three ways serve_cold derives the same spec.
var coldPaths = []string{"cold", "sharded", "fleet"}

// coldRig is one serve_cold set-up: a local server (in-process and
// spooled, supervised sharded derivations) and a fleet coordinator
// dispatching to two loopback workers with one traversal worker each.
// All of them have fresh store, spool and worker directories.
type coldRig struct {
	local, coord, w1, w2 *server
	localSpool           string
	ckpt                 *checkpointLog // traced runs only
	current              atomic.Int64   // client span id of the request in flight
}

func (r *coldRig) close() {
	for _, s := range []*server{r.coord, r.local, r.w1, r.w2} {
		if s != nil {
			s.close()
		}
	}
}

// checkpointLog observes the spooled shards' checkpoint flushes through
// serve.Config.OnCheckpoint, and copies each shard's final partial
// before the server removes the spool.
type checkpointLog struct {
	mu       sync.Mutex
	dir      string // spool directory of the derivation being run
	copyDir  string
	times    map[int][]time.Time
	copies   []string
	n        int
	copyErrs int
}

func (l *checkpointLog) reset(copyDir string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.copyDir, l.times, l.copies, l.n, l.copyErrs = copyDir, map[int][]time.Time{}, nil, 0, 0
}

// take returns what the request's checkpoints left and stops copying.
func (l *checkpointLog) take() (copies []string, n int, times map[int][]time.Time, copyErrs int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.copyDir = ""
	return l.copies, l.n, l.times, l.copyErrs
}

func (l *checkpointLog) observe(m shard.Manifest) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	l.times[m.ShardIndex] = append(l.times[m.ShardIndex], now)
	if !m.Complete() || l.copyDir == "" {
		return
	}
	src := supervise.ShardPath(l.dir, m.ShardIndex, m.ShardCount)
	dst := filepath.Join(l.copyDir, filepath.Base(src))
	data, err := os.ReadFile(src)
	if err == nil {
		err = os.WriteFile(dst, data, 0o644)
	}
	if err != nil {
		l.copyErrs++
		return
	}
	l.copies = append(l.copies, dst)
}

// dispatchRT is the RoundTripper wrapped into the coordinator's fleet
// client: it records a fleet.dispatch span per shard dispatch, from the
// request until the response body is closed, and passes the span id to
// the worker's middleware.
type dispatchRT struct {
	next http.RoundTripper
	tr   *tracer
	rig  *coldRig
}

func (d *dispatchRT) RoundTrip(req *http.Request) (*http.Response, error) {
	id := d.tr.newID()
	parent := d.rig.current.Load()
	req = req.Clone(req.Context())
	req.Header.Set(opHeader, strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := d.next.RoundTrip(req)
	if err != nil {
		d.tr.record(span{id: id, parent: parent, op: parent, name: "fleet.dispatch", start: start, end: time.Now()})
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		d.tr.record(span{id: id, parent: parent, op: parent, name: "fleet.dispatch", start: start, end: time.Now()})
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

func setupCold(e *env, c *client, tr *tracer) (*coldRig, error) {
	r := &coldRig{localSpool: e.dirs.fresh("spool")}
	workers := runtime.NumCPU()
	local := serve.Config{StoreDir: e.dirs.fresh("store"), SpoolDir: r.localSpool, Workers: workers}
	if tr != nil {
		r.ckpt = &checkpointLog{}
		local.OnCheckpoint = r.ckpt.observe
	}
	var err error
	if r.local, err = startServer(local, nil, ""); err != nil {
		return nil, err
	}
	for _, w := range []**server{&r.w1, &r.w2} {
		cfg := serve.Config{WorkerDir: e.dirs.fresh("worker"), Workers: 1}
		if *w, err = startServer(cfg, tr, "fleet.worker_handler", "/v1/shard"); err != nil {
			r.close()
			return nil, err
		}
	}
	coord := serve.Config{
		StoreDir:           e.dirs.fresh("store"),
		SpoolDir:           e.dirs.fresh("spool"),
		Workers:            workers,
		FleetWorkers:       []string{r.w1.url, r.w2.url},
		FleetProbeInterval: -1, // no background probes in a timed run
	}
	if tr != nil {
		coord.FleetClient = &http.Client{Transport: &dispatchRT{next: http.DefaultTransport, tr: tr, rig: r}}
	}
	if r.coord, err = startServer(coord, nil, ""); err != nil {
		r.close()
		return nil, err
	}
	for _, s := range []*server{r.local, r.w1, r.w2, r.coord} {
		if err := c.ready(s); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// runCold is the serve_cold workload: one closed-loop client, every
// request no_cache, rotating in a seeded order per cycle through the
// in-process, supervised-sharded and fleet paths for the same spec. Whole
// cycles run until the time is up, so each path has the same number of
// samples.
func runCold(e *env, seconds float64, tr *tracer) (*outcome, error) {
	o := newOutcome()
	c := newClient()
	defer c.close()
	start := time.Now()
	r, err := setupCold(e, c, tr)
	if err != nil {
		return nil, err
	}
	o.setups = append(o.setups, time.Since(start))
	defer r.close()
	// The set-up takes a millisecond or two, which the machine's state
	// of the moment can double. It is therefore also timed before every
	// cycle of requests, on a second rig that is closed straight away,
	// so that setup_s samples the machine throughout the run, as the
	// requests do. Its allocations are left out of alloc_kb_per_op.
	var setupBytes uint64
	timeSetups := func() error {
		var err error
		_, b := allocs(func() {
			for i := 0; i < coldSetupReps && err == nil; i++ {
				start := time.Now()
				var extra *coldRig
				if extra, err = setupCold(e, c, tr); err == nil {
					o.setups = append(o.setups, time.Since(start))
					extra.close()
				}
			}
		})
		setupBytes += b
		return err
	}

	in := coldSpec(e.cfg.small)
	_, digest, err := store.Identity(in.spec)
	if err != nil {
		return nil, err
	}
	bodies := map[string][]byte{}
	for _, p := range coldPaths {
		req := *in.req
		req.NoCache = true
		if p != "cold" {
			req.Shards = coldShards
		}
		if bodies[p], err = json.Marshal(&req); err != nil {
			return nil, err
		}
	}
	urls := map[string]string{"cold": r.local.url, "sharded": r.local.url, "fleet": r.coord.url}
	if r.ckpt != nil {
		r.ckpt.dir = filepath.Join(r.localSpool, fmt.Sprintf("%.16s", digest))
	}

	lat := map[string]samples{}
	var deriveMS, overhead, merge, tails samples
	var skews []float64
	var partialBytes, partials int64
	var checkpoints []int
	var gaps samples
	var lastCurve *servedResponse
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	coordBefore := r.coord.srv.Snapshot()
	begin := time.Now()
	for time.Since(begin).Seconds() < seconds {
		if err := timeSetups(); err != nil {
			return nil, err
		}
		for _, k := range e.rng.Perm(len(coldPaths)) {
			p := coldPaths[k]
			if r.ckpt != nil && p == "sharded" {
				dir := e.dirs.fresh("partials")
				if err := os.MkdirAll(dir, 0o755); err != nil {
					return nil, err
				}
				r.ckpt.reset(dir)
			}
			id := tr.newID()
			r.current.Store(id)
			var status int
			var body []byte
			var l time.Duration
			var start time.Time
			o.rss.around(p, func() {
				start = time.Now()
				status, body, l, err = c.post(urls[p]+"/v1/curve", bodies[p], id)
			})
			tr.record(span{id: id, op: id, name: "client." + p, start: start, end: start.Add(l)})
			o.attempted++
			if err != nil {
				o.fail("%s %s: %v", p, in.name, err)
				continue
			}
			resp, ok := e.verify(o, in.name, status, body)
			if !ok {
				continue
			}
			if resp.Cached {
				o.fail("%s %s: no_cache request answered from cache", p, in.name)
			}
			lat[p] = append(lat[p], l)
			lastCurve = resp
			if tr == nil {
				continue
			}
			switch p {
			case "cold":
				deriveMS = append(deriveMS, time.Duration(resp.ElapsedMS)*time.Millisecond)
				overhead = append(overhead, l-time.Duration(resp.ElapsedMS)*time.Millisecond)
			case "sharded":
				copies, n, times, copyErrs := r.ckpt.take()
				checkpoints = append(checkpoints, n)
				for _, ts := range times {
					for j := 1; j < len(ts); j++ {
						gaps = append(gaps, ts[j].Sub(ts[j-1]))
					}
				}
				if len(copies) != coldShards || copyErrs != 0 {
					o.fail("sharded %s: copied %d of %d final partials", in.name, len(copies), coldShards)
					continue
				}
				for _, f := range copies {
					if fi, err := os.Stat(f); err == nil {
						partialBytes += fi.Size()
						partials++
					}
				}
				mstart := time.Now()
				curve, err := shard.MergeFiles(copies...)
				merge = append(merge, time.Since(mstart))
				o.attempted++
				if err != nil {
					o.fail("merging copied partials: %v", err)
				} else {
					e.check(o, in.name, resultDigest(curve, nil))
				}
			case "fleet":
				var last time.Time
				var handlers []time.Duration
				ids := map[int64]bool{}
				for _, s := range tr.named("fleet.dispatch") {
					if s.parent == id {
						ids[s.id] = true
						if s.end.After(last) {
							last = s.end
						}
					}
				}
				for _, s := range tr.named("fleet.worker_handler") {
					if ids[s.parent] {
						handlers = append(handlers, s.dur())
					}
				}
				if !last.IsZero() {
					tails = append(tails, start.Add(l).Sub(last))
				}
				if lo, hi := minMax(handlers); lo > 0 {
					skews = append(skews, float64(hi)/float64(lo))
				}
			}
		}
	}
	coordAfter := r.coord.srv.Snapshot()
	runtime.ReadMemStats(&ms1)
	o.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc - setupBytes
	for _, p := range coldPaths {
		o.paths = append(o.paths, path{p, lat[p]})
		o.ops += int64(len(lat[p]))
	}
	if o.ops == 0 {
		return nil, fmt.Errorf("serve_cold: no request succeeded: %v", o.failures)
	}
	o.p50ms = geomean(ms(lat["cold"].median()), ms(lat["sharded"].median()), ms(lat["fleet"].median()))
	o.detail["cold_p50_s"] = metric{lat["cold"].median().Seconds(), "s"}
	o.detail["sharded_p50_s"] = metric{lat["sharded"].median().Seconds(), "s"}
	o.detail["fleet_p50_s"] = metric{lat["fleet"].median().Seconds(), "s"}
	if tr == nil {
		return o, nil
	}

	o.layer("serve.derive_ms", ms(deriveMS.median()), "ms")
	o.layer("serve.overhead_ms", ms(overhead.median()), "ms")
	if lastCurve != nil {
		putMS, err := storePut(e, lastCurve)
		if err != nil {
			return nil, err
		}
		o.layer("store.put_ms", putMS, "ms")
	}
	var ck float64
	for _, n := range checkpoints {
		ck += float64(n)
	}
	o.count("shard.checkpoints", ck/float64(max(len(checkpoints), 1)))
	o.layer("shard.checkpoint_gap_ms", ms(gaps.median()), "ms")
	o.layer("shard.merge_ms", ms(merge.median()), "ms")
	o.layer("shard.partial_bytes", float64(partialBytes)/float64(max(partials, 1)), "B")
	o.layer("supervise.overhead_ms", ms(lat["sharded"].median()-lat["cold"].median()), "ms")
	o.layer("fleet.dispatch_ms", ms(tr.durations("fleet.dispatch").median()), "ms")
	o.layer("fleet.worker_handler_ms", ms(tr.durations("fleet.worker_handler").median()), "ms")
	byID := map[int64]time.Duration{}
	for _, s := range tr.named("fleet.dispatch") {
		byID[s.id] = s.dur()
	}
	var transport samples
	for _, s := range tr.named("fleet.worker_handler") {
		if d, ok := byID[s.parent]; ok {
			transport = append(transport, d-s.dur())
		}
	}
	o.layer("fleet.transport_ms", ms(transport.median()), "ms")
	o.layer("fleet.tail_ms", ms(tails.median()), "ms")
	o.layer("fleet.shard_skew", medianFloat(skews), "x")
	fleetShards := float64(len(lat["fleet"]) * coldShards)
	o.count("fleet.dispatches_per_shard", float64(coordAfter.FleetDispatches-coordBefore.FleetDispatches)/fleetShards)
	o.layer("fleet.retries", float64(coordAfter.FleetRetries-coordBefore.FleetRetries), "count")
	o.layer("fleet.speculations", float64(coordAfter.FleetSpeculations-coordBefore.FleetSpeculations), "count")
	o.layer("fleet.quarantines", float64(coordAfter.FleetQuarantines-coordBefore.FleetQuarantines), "count")
	return o, nil
}

func minMax(ds []time.Duration) (lo, hi time.Duration) {
	for i, d := range ds {
		if i == 0 || d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	return lo, hi
}

// storePut times a direct store.Put of an entry the size of the cold
// response into a fresh store; the median of a few puts under distinct
// digests, in milliseconds.
func storePut(e *env, resp *servedResponse) (float64, error) {
	st, err := store.Open(store.Options{Dir: e.dirs.fresh("store")})
	if err != nil {
		return 0, err
	}
	var puts samples
	for i := 0; i < 10; i++ {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		ent := &store.Entry{Kind: shard.KindBound, Evaluated: 1, ElapsedMS: resp.ElapsedMS, Curve: resp.Curve}
		start := time.Now()
		if err := st.Put(hex.EncodeToString(sum[:]), ent); err != nil {
			return 0, err
		}
		puts = append(puts, time.Since(start))
	}
	return ms(puts.median()), nil
}
