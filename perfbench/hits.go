package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/einsum"
	"repro/internal/pareto"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workload"
)

// hitsSetupEvery is how many block pairs serve_hits runs between two
// timings of its set-up (fresh store, two servers, catalog warm);
// setup_s is the median over the run.
const hitsSetupEvery = 2

// servedResponse is the part of a /v1/curve response the benchmark checks.
type servedResponse struct {
	Cached    bool               `json:"cached"`
	ElapsedMS int64              `json:"elapsed_ms"`
	Curve     *pareto.Curve      `json:"curve"`
	Segments  []workload.Segment `json:"segments"`
}

// verify decodes a response and checks its status and curve digest.
func (e *env) verify(o *outcome, name string, status int, body []byte) (*servedResponse, bool) {
	if status != http.StatusOK {
		o.fail("%s: status %d: %.200s", name, status, body)
		return nil, false
	}
	var r servedResponse
	if err := json.Unmarshal(body, &r); err != nil || r.Curve == nil {
		o.fail("%s: undecodable response: %v", name, err)
		return nil, false
	}
	if !e.check(o, name, resultDigest(r.Curve, r.Segments)) {
		return nil, false
	}
	return &r, true
}

// hitsRig is one serve_hits set-up: a memory-tier server whose LRU holds
// the whole catalog and a disk-tier server (CacheEntries 1) sharing its
// curve store, so that cycling the catalog misses memory every time.
type hitsRig struct {
	mem, disk *server
	storeDir  string
	items     []input
	bodies    [][]byte // request bodies
	expected  [][]byte // verified cached response bodies
}

func (r *hitsRig) close() {
	r.mem.close()
	r.disk.close()
}

func setupHits(e *env, o *outcome, c *client, tr *tracer) (*hitsRig, error) {
	r := &hitsRig{storeDir: e.dirs.fresh("store"), items: catalog()}
	var err error
	workers := runtime.NumCPU()
	if r.mem, err = startServer(serve.Config{StoreDir: r.storeDir, Workers: workers}, tr, "serve.handler.mem", "/v1/curve"); err != nil {
		return nil, err
	}
	if r.disk, err = startServer(serve.Config{StoreDir: r.storeDir, Workers: workers, CacheEntries: 1}, tr, "serve.handler.disk", "/v1/curve"); err != nil {
		r.mem.close()
		return nil, err
	}
	for _, in := range r.items {
		body, err := json.Marshal(in.req)
		if err != nil {
			r.close()
			return nil, err
		}
		r.bodies = append(r.bodies, body)
		// The first request derives and persists; the second is the
		// memory hit whose bytes every later hit must repeat.
		var exp []byte
		for i := 0; i < 2; i++ {
			status, resp, _, err := c.post(r.mem.url+"/v1/curve", body, 0)
			if err != nil {
				r.close()
				return nil, fmt.Errorf("warming %s: %w", in.name, err)
			}
			o.attempted++
			if _, ok := e.verify(o, in.name, status, resp); ok {
				exp = resp
			}
		}
		r.expected = append(r.expected, exp)
	}
	return r, nil
}

// hitPhase drives one tier with closed-loop clients for seconds. next
// picks each request's catalog index; block seeds its choices.
func hitPhase(e *env, o *outcome, r *hitsRig, srv *server, c *client, tr *tracer, spanName string, seconds float64, block, clients int, next func(client int, rng *rand.Rand) int) samples {
	lats := make([]samples, clients)
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.cfg.seed*1_000_000 + int64(block)*1000 + int64(k)))
			for time.Now().Before(deadline) {
				i := next(k, rng)
				id := tr.newID()
				start := time.Now()
				status, body, lat, err := c.post(srv.url+"/v1/curve", r.bodies[i], id)
				tr.record(span{id: id, op: id, name: spanName, start: start, end: start.Add(lat)})
				mu.Lock()
				o.attempted++
				switch {
				case err != nil:
					o.fail("%s: %v", r.items[i].name, err)
				case status == http.StatusOK && bytes.Equal(body, r.expected[i]):
				default:
					if resp, ok := e.verify(o, r.items[i].name, status, body); ok && !resp.Cached {
						o.fail("%s: served uncached", r.items[i].name)
					}
				}
				mu.Unlock()
				lats[k] = append(lats[k], lat)
			}
		}(k)
	}
	wg.Wait()
	var all samples
	for _, l := range lats {
		all = append(all, l...)
	}
	return all
}

// runHits is the serve_hits workload: closed-loop clients (one per CPU,
// at most half the catalog size) against a pre-warmed catalog, first on
// the memory tier, then on the disk tier. No request derives anything; a request that does, or a
// tier counter that does not match the phase, is a failed operation.
func runHits(e *env, seconds float64, tr *tracer) (*outcome, error) {
	o := newOutcome()
	c := newClient()
	defer c.close()
	start := time.Now()
	r, err := setupHits(e, o, c, tr)
	if err != nil {
		return nil, err
	}
	o.setups = append(o.setups, time.Since(start))
	defer r.close()
	n := len(r.items)
	// The set-up is also timed between blocks, on a second rig that is
	// closed straight away, so that setup_s samples the machine
	// throughout the run, as the blocks do. Its allocations are left out
	// of alloc_kb_per_op and runtime.allocs_per_req.
	var setupAllocs, setupBytes uint64
	timeSetup := func() error {
		var err error
		a, b := allocs(func() {
			start := time.Now()
			var extra *hitsRig
			if extra, err = setupHits(e, o, c, tr); err == nil {
				o.setups = append(o.setups, time.Since(start))
				extra.close()
			}
		})
		setupAllocs, setupBytes = setupAllocs+a, setupBytes+b
		return err
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	// Each client cycles its own share of a seeded catalog permutation
	// on the disk tier, so no two requests in flight, and no two in a
	// row, name the same entry: the one-entry LRU never holds the entry
	// requested next. That needs at least two entries per share.
	perm := e.rng.Perm(n)
	clients := e.cfg.clients
	if clients <= 0 {
		clients = runtime.NumCPU()
	}
	clients = min(clients, n/2)
	cursors := make([]int, clients)
	nextDisk := func(k int, _ *rand.Rand) int {
		share := perm[k*n/clients : (k+1)*n/clients]
		i := share[cursors[k]%len(share)]
		cursors[k]++
		return i
	}
	nextMem := func(_ int, rng *rand.Rand) int { return rng.Intn(n) }

	// The phases alternate in blocks of about a second, so both tiers
	// see the same machine conditions; each tier's p50 is the median of
	// its block medians, which discounts blocks a transient load slowed.
	blocks := max(1, int(seconds/2+0.5))
	block := seconds / 2 / float64(blocks)
	var memLat, diskLat, memBlocks, diskBlocks samples
	var memDur, diskDur time.Duration
	memBefore, diskBefore := r.mem.srv.Snapshot(), r.disk.srv.Snapshot()
	for b := 0; b < blocks; b++ {
		var lat samples
		o.rss.around("mem_hit", func() {
			start := time.Now()
			lat = hitPhase(e, o, r, r.mem, c, tr, "client.mem", block, b, clients, nextMem)
			memDur += time.Since(start)
		})
		memLat, memBlocks = append(memLat, lat...), append(memBlocks, lat.median())
		o.rss.around("disk_hit", func() {
			start := time.Now()
			lat = hitPhase(e, o, r, r.disk, c, tr, "client.disk", block, b, clients, nextDisk)
			diskDur += time.Since(start)
		})
		diskLat, diskBlocks = append(diskLat, lat...), append(diskBlocks, lat.median())
		if b%hitsSetupEvery == hitsSetupEvery-1 {
			if err := timeSetup(); err != nil {
				return nil, err
			}
		}
	}
	memAfter, diskAfter := r.mem.srv.Snapshot(), r.disk.srv.Snapshot()
	runtime.ReadMemStats(&ms1)

	memReq, diskReq := int64(len(memLat)), int64(len(diskLat))
	memHits := memAfter.CacheHits - memBefore.CacheHits
	storeHits := diskAfter.StoreHits - diskBefore.StoreHits
	diskMemHits := diskAfter.CacheHits - diskBefore.CacheHits
	derivations := memAfter.Derivations - memBefore.Derivations + diskAfter.Derivations - diskBefore.Derivations
	// Requests the phase's tier did not answer are failed operations.
	tierMiss := func(format string, miss int64, args ...any) {
		if miss < 0 {
			miss = -miss
		}
		if miss > 0 {
			o.fail(format, args...)
			o.failed += miss - 1
		}
	}
	tierMiss("memory phase: %d cache hits for %d requests", memReq-memHits, memHits, memReq)
	tierMiss("disk phase: %d store hits for %d requests", diskReq-storeHits, storeHits, diskReq)
	tierMiss("disk phase: %d memory hits", diskMemHits, diskMemHits)
	tierMiss("%d derivations during a hit workload", derivations, derivations)

	o.paths = []path{{"mem_hit", memLat}, {"disk_hit", diskLat}}
	o.ops = memReq + diskReq
	o.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc - setupBytes
	o.p50ms = geomean(ms(memBlocks.median()), ms(diskBlocks.median()))
	o.detail["mem_hit_p50_ms"] = metric{ms(memBlocks.median()), "ms"}
	o.detail["mem_hit_p90_ms"] = metric{ms(memLat.quantile(0.9)), "ms"}
	o.detail["mem_hit_rps"] = metric{float64(memReq) / memDur.Seconds(), "1/s"}
	o.detail["disk_hit_p50_ms"] = metric{ms(diskBlocks.median()), "ms"}
	o.detail["disk_hit_p90_ms"] = metric{ms(diskLat.quantile(0.9)), "ms"}
	o.detail["disk_hit_rps"] = metric{float64(diskReq) / diskDur.Seconds(), "1/s"}
	if tr == nil {
		return o, nil
	}

	// Handler spans pair with the client span that caused them; the
	// catalog warm-up requests carry no client span and are left out.
	handler := map[int64]time.Duration{}
	for _, tier := range [][2]string{{"serve.handler.mem", "serve.handler_mem_us"}, {"serve.handler.disk", "serve.handler_disk_us"}} {
		var ds samples
		for _, s := range tr.named(tier[0]) {
			if s.parent != 0 {
				handler[s.parent] = s.dur()
				ds = append(ds, s.dur())
			}
		}
		o.layer(tier[1], us(ds.median()), "us")
	}
	var net samples
	for _, name := range []string{"client.mem", "client.disk"} {
		for _, s := range tr.named(name) {
			if h, ok := handler[s.id]; ok {
				net = append(net, s.dur()-h)
			}
		}
	}
	o.layer("net.rtt_minus_handler_us", us(net.median()), "us")
	o.count("serve.derivations", float64(derivations))
	o.layer("serve.mem_hit_ratio", float64(memHits)/float64(memReq), "fraction")
	o.layer("serve.store_hit_ratio", float64(storeHits)/float64(diskReq), "fraction")
	o.layer("runtime.allocs_per_req", float64(ms1.Mallocs-ms0.Mallocs-setupAllocs)/float64(o.ops), "count")
	return o, hitsLayerProbes(e, o, r)
}

// probeReps is how often a single direct layer call is repeated; the
// per-item figure is the median.
const probeReps = 25

func medianOf(fn func()) time.Duration {
	var s samples
	for i := 0; i < probeReps; i++ {
		s = append(s, timed(fn))
	}
	return s.median()
}

// hitsLayerProbes times the per-request layer work of the catalog by
// calling the layers directly: curve encoding, einsum parsing, the
// identity work done before the cache lookup, and store reads. Each is
// the mean over catalog entries of the per-entry median.
func hitsLayerProbes(e *env, o *outcome, r *hitsRig) error {
	st, err := store.Open(store.Options{Dir: r.storeDir})
	if err != nil {
		return err
	}
	var marshal, parse, ident, get time.Duration
	var respBytes, getBytes int64
	parses := 0
	for i, in := range r.items {
		respBytes += int64(len(r.expected[i]))
		var resp servedResponse
		if err := json.Unmarshal(r.expected[i], &resp); err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		marshal += medianOf(func() { _, _ = json.Marshal(resp.Curve) })
		var srcs []string
		switch {
		case in.req.Einsum != "":
			srcs = []string{in.req.Einsum}
		case in.req.Chain != nil:
			srcs = in.req.Chain.Einsums
		case in.req.Segmentation != nil:
			srcs = in.req.Segmentation.Einsums
		}
		for _, src := range srcs {
			parse += medianOf(func() { _, _ = einsum.Parse(src) })
			parses++
		}
		ident += medianOf(func() {
			_ = in.spec.Validate()
			_, _, _ = store.Identity(in.spec)
			_, _ = in.spec.Space()
		})
		_, digest, err := store.Identity(in.spec)
		if err != nil {
			return err
		}
		if _, ok := st.Get(digest); !ok {
			o.fail("%s: not in the curve store", in.name)
		}
		get += medianOf(func() { _, _ = st.Get(digest) })
		fi, err := os.Stat(filepath.Join(r.storeDir, digest+".curve"))
		if err != nil {
			return err
		}
		getBytes += fi.Size()
	}
	n := time.Duration(len(r.items))
	o.count("serve.resp_bytes", float64(respBytes)/float64(len(r.items)))
	o.layer("pareto.marshal_us", us(marshal/n), "us")
	o.layer("einsum.parse_us", us(parse/time.Duration(parses)), "us")
	o.layer("workload.identity_us", us(ident/n), "us")
	o.layer("store.get_us", us(get/n), "us")
	o.layer("store.get_bytes", float64(getBytes)/float64(len(r.items)), "B")
	return nil
}
