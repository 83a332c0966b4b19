package main

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"netloc/internal/core"
	"netloc/internal/service"
	"netloc/internal/trace"
	"netloc/internal/workcache"
	"netloc/internal/workloads"
)

// The service-mix schedule. Its request multiset is fixed, so every seed
// asks for the same work; the seed shapes only the order, the split
// between the two clients and where the dedup bursts fall.
const (
	serviceClients = 2
	// maxServiceRanks bounds the analyzed configurations: above it a
	// cold analysis takes up to 0.8 s, and one replay would no longer fit
	// several times into a run.
	maxServiceRanks = 128
	// headRequests is how often the most popular key is asked for; key
	// r in popularity order is asked for headRequests/r^zipfS times,
	// and at least once.
	headRequests   = 300.0
	zipfS          = 1.1
	popularitySeed = 1
	uploadShare    = 0.10
	congestShare   = 0.02
	dedupBursts    = 12
)

type reqClass int

const (
	classAnalyze reqClass = iota
	classUpload
	classCongestion
	classDedup
)

// request is one scheduled HTTP request. key names its response in the
// pins and in the result-cache model.
type request struct {
	class reqClass
	key   string
	path  string
	body  []byte // POST body; nil means GET
	burst int    // barrier index of a dedup request

	// The analysis the request asks for (analyze and dedup only), for
	// the direct library calls of the traced run.
	app, topo, mapping string
	ranks              int
	coverage           float64
}

// mixInputs are the fixed inputs every schedule draws from.
type mixInputs struct {
	analyze []*request // in popularity order
	counts  []int      // requests per analyze key
	uploads []*request
	congest []*request
	bursts  []*request
}

func analyzeRequest(class reqClass, ref core.WorkloadRef, topo, mapping string, coverage float64) *request {
	q := url.Values{"app": {ref.App}, "ranks": {strconv.Itoa(ref.Ranks)}, "topo": {topo}, "mapping": {mapping}}
	if coverage != 0 {
		q.Set("coverage", strconv.FormatFloat(coverage, 'g', -1, 64))
	}
	path := "/v1/analyze?" + q.Encode()
	return &request{class: class, key: path, path: path,
		app: ref.App, ranks: ref.Ranks, topo: topo, mapping: mapping, coverage: coverage}
}

// uploadConfigs are the registry traces posted to /v1/traces/analyze.
var uploadConfigs = []core.WorkloadRef{
	{App: "AMG", Ranks: 27}, {App: "MiniFE", Ranks: 18}, {App: "LULESH", Ranks: 64}, {App: "Crystal Router", Ranks: 100},
}

// newMixInputs builds the key universe: every configuration up to
// maxServiceRanks ranks × 7 topology selectors × 2 mappings × 2
// coverages (448 keys, more than the service's 256-entry result cache),
// the encoded upload traces, three small congestion bodies, and the
// burst keys, which use a coverage nothing else asks for so each burst
// finds its key uncomputed.
func newMixInputs() (*mixInputs, error) {
	in := &mixInputs{}
	var refs []core.WorkloadRef
	for _, ref := range core.AllConfigurations() {
		if ref.Ranks <= maxServiceRanks {
			refs = append(refs, ref)
		}
	}
	topos := append([]string{"all"}, core.AnalysisKinds()...)
	var keys []*request
	for _, ref := range refs {
		for _, topo := range topos {
			for _, m := range []string{core.MappingConsecutive, core.MappingGreedy} {
				for _, cov := range []float64{0, 0.8} {
					keys = append(keys, analyzeRequest(classAnalyze, ref, topo, m, cov))
				}
			}
		}
	}
	for _, i := range rand.New(rand.NewSource(popularitySeed)).Perm(len(keys)) {
		in.analyze = append(in.analyze, keys[i])
		r := len(in.analyze)
		in.counts = append(in.counts, max(1, int(math.Round(headRequests/math.Pow(float64(r), zipfS)))))
	}
	for _, ref := range uploadConfigs {
		app, err := workloads.Lookup(ref.App)
		if err != nil {
			return nil, err
		}
		t, err := app.Generate(ref.Ranks)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := trace.WriteTrace(&b, t); err != nil {
			return nil, err
		}
		in.uploads = append(in.uploads, &request{class: classUpload,
			key: fmt.Sprintf("upload %s/%d", ref.App, ref.Ranks), path: "/v1/traces/analyze", body: b.Bytes()})
	}
	for _, fam := range []string{"torus", "fattree", "dragonfly"} {
		body := fmt.Sprintf(`{"workloads":[{"app":"LULESH","ranks":64}],"families":[%q],"policies":["minimal","ecmp"],"growth_pct":-1}`, fam)
		in.congest = append(in.congest, &request{class: classCongestion,
			key: "congestion " + fam, path: "/v1/congestion", body: []byte(body)})
	}
	for i := 0; i < dedupBursts; i++ {
		in.bursts = append(in.bursts, analyzeRequest(classDedup, refs[i%len(refs)], "all", core.MappingConsecutive, 0.7))
	}
	return in, nil
}

// schedule is one replay: the request list of each client.
type schedule [serviceClients][]*request

// newSchedule draws a schedule from the fixed inputs.
func newSchedule(in *mixInputs, seed int64) schedule {
	rng := rand.New(rand.NewSource(seed))
	var items []*request
	for i, r := range in.analyze {
		for j := 0; j < in.counts[i]; j++ {
			items = append(items, r)
		}
	}
	analyzed := float64(len(items))
	rest := 1 - uploadShare - congestShare
	for i := 0; i < int(math.Round(analyzed*uploadShare/rest)); i++ {
		items = append(items, in.uploads[i%len(in.uploads)])
	}
	for i := 0; i < int(math.Round(analyzed*congestShare/rest)); i++ {
		items = append(items, in.congest[i%len(in.congest)])
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	var s schedule
	for i, r := range items {
		s[i%serviceClients] = append(s[i%serviceClients], r)
	}
	// Each burst sits at the same relative position in every client's
	// list, and bursts keep their order, so the barriers line up.
	pos := make([]float64, len(in.bursts))
	for i := range pos {
		pos[i] = rng.Float64()
	}
	sort.Float64s(pos)
	for c := range s {
		var out []*request
		next, n := 0, len(s[c])
		for i, r := range s[c] {
			for next < len(pos) && int(pos[next]*float64(n)) <= i {
				out = append(out, burstOf(in.bursts[next], next))
				next++
			}
			out = append(out, r)
		}
		for ; next < len(pos); next++ {
			out = append(out, burstOf(in.bursts[next], next))
		}
		s[c] = out
	}
	return s
}

func burstOf(r *request, i int) *request {
	b := *r
	b.burst = i
	return &b
}

// sample is one traced request, +Inf ms when it failed.
type sample struct {
	class reqClass
	hit   bool // analyze only: the key was in the result-cache model
	ms    float64
}

// replayStats is what one replay measured.
type replayStats struct {
	wall      float64
	samples   []sample
	attempted int
	failed    int
	firstErr  error
	metrics   map[string]any // GET /metrics after the replay (traced only)
}

// lruModel mirrors the service's result LRU, so a repeat request can be
// told from one whose key was evicted. The service touches its LRU when
// a request starts and fills it when the computation ends; the model
// does both on completion, which can differ only at the eviction edge.
type lruModel struct {
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

func newLRUModel(capacity int) *lruModel {
	return &lruModel{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

func (m *lruModel) touch(key string) (hit bool) {
	if e, ok := m.items[key]; ok {
		m.ll.MoveToFront(e)
		return true
	}
	m.items[key] = m.ll.PushFront(key)
	if m.ll.Len() > m.cap {
		old := m.ll.Back()
		m.ll.Remove(old)
		delete(m.items, old.Value.(string))
	}
	return false
}

// serviceMix drives service.New(service.Options{}) — 2 workers, a
// 256-entry result cache — behind a real loopback listener with a closed
// loop of two clients, one keep-alive connection each. Each unit replays
// the whole schedule against a freshly started server, so every unit
// does the same work: cold misses, hits, evictions, deduplicated bursts
// and uncached uploads.
type serviceMix struct {
	seed  int64
	pins  *pins
	in    *mixInputs
	sched schedule

	// Pooled over the traced replays of one run.
	traced  []sample
	analyze []float64 // direct core.AnalyzeAppOn calls, ms
}

func (w *serviceMix) setup() error {
	in, err := newMixInputs()
	if err != nil {
		return err
	}
	w.in = in
	w.sched = newSchedule(in, w.seed)
	_, _, err = w.unit() // warm-up replay
	return err
}

func (w *serviceMix) unit() (int, int, error) {
	st, err := w.replay(false)
	if err != nil {
		return 1, 1, err
	}
	return st.attempted, st.failed, st.firstErr
}

func (w *serviceMix) replay(traced bool) (*replayStats, error) {
	srv := service.New(service.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var bursts [dedupBursts]sync.WaitGroup
	for i := range bursts {
		bursts[i].Add(serviceClients)
	}
	var mu sync.Mutex
	st := &replayStats{}
	model := newLRUModel(srv.Options().CacheEntries)
	record := func(r *request, body []byte, err error, ms float64) {
		mu.Lock()
		defer mu.Unlock()
		st.attempted++
		// Every response, a repeat included, must match its key's pin, so
		// a cache hit is byte-identical to the response first computed.
		if err == nil {
			err = w.pins.check(r.key, body)
		}
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
			ms = math.Inf(1)
		}
		if traced {
			s := sample{class: r.class, ms: ms}
			if r.class != classUpload {
				s.hit = model.touch(r.key)
			}
			st.samples = append(st.samples, s)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := range w.sched {
		wg.Add(1)
		go func(list []*request) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for _, r := range list {
				if r.class == classDedup {
					bursts[r.burst].Done()
					bursts[r.burst].Wait()
				}
				t0 := time.Now()
				body, err := send(client, ts.URL, r)
				record(r, body, err, float64(time.Since(t0))/float64(time.Millisecond))
			}
		}(w.sched[c])
	}
	wg.Wait()
	st.wall = time.Since(start).Seconds()
	if traced {
		client := newClient()
		body, err := send(client, ts.URL, &request{path: "/metrics"})
		client.CloseIdleConnections()
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %w", err)
		}
		if err := json.Unmarshal(body, &st.metrics); err != nil {
			return nil, fmt.Errorf("GET /metrics: %w", err)
		}
	}
	return st, nil
}

// newClient returns a client with one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// send performs one request and returns the body of a 200 response.
func send(client *http.Client, base string, r *request) ([]byte, error) {
	var resp *http.Response
	var err error
	if r.body == nil {
		resp, err = client.Get(base + r.path)
	} else {
		resp, err = client.Post(base+r.path, "application/octet-stream", bytes.NewReader(r.body))
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, mismatch("%s: status %d: %s", r.key, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func (w *serviceMix) tracePair() (map[string]float64, error) {
	plain, err := w.replay(false)
	if err != nil {
		return nil, err
	}
	st, err := w.replay(true)
	if err != nil {
		return nil, err
	}
	if plain.firstErr != nil || st.firstErr != nil {
		return nil, firstNonNil(plain.firstErr, st.firstErr)
	}
	w.traced = append(w.traced, st.samples...)
	if w.analyze == nil {
		if err := w.directAnalyses(); err != nil {
			return nil, err
		}
	}
	m := newTracer().layerMetrics(0, 0)
	var busy float64
	for _, s := range st.samples {
		busy += s.ms / 1e3
	}
	m["bench.coverage"] = busy / (serviceClients * st.wall)
	m["bench.overhead"] = st.wall/plain.wall - 1

	var reads []float64
	for _, u := range w.in.uploads {
		d, err := timed(func() error {
			_, err := trace.ReadTrace(bytes.NewReader(u.body))
			return err
		})
		if err != nil {
			return nil, err
		}
		reads = append(reads, d)
	}
	m["trace.read_s"] = median(reads)

	num := func(path ...string) float64 {
		var v any = st.metrics
		for _, p := range path {
			obj, _ := v.(map[string]any)
			v = obj[p]
		}
		f, _ := v.(float64)
		return f
	}
	hits, misses := num("cache", "hits"), num("cache", "misses")
	if hits+misses > 0 {
		m["service.cache_hit_ratio"] = hits / (hits + misses)
	}
	m["service.executed"] = num("compute", "executed")
	m["service.deduped"] = num("compute", "deduped")
	m["service.evictions"] = num("cache", "evictions")
	m["parallel.queue_wait_ms"] = num("engine", "queue_wait_ms", "mean_ms")
	m["parallel.degraded"] = num("engine", "degraded")
	wh, wm := num("workcache", "hits"), num("workcache", "misses")
	m["workcache.hits"], m["workcache.misses"] = wh, wm
	m["workcache.evictions"] = num("workcache", "evictions")
	if wh+wm > 0 {
		m["workcache.hit_ratio"] = wh / (wh + wm)
	}
	return m, nil
}

func firstNonNil(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// directAnalyses calls core.AnalyzeAppOn for every distinct analyze key,
// in popularity order, on one fresh artifact cache: the computation a
// service miss runs, without HTTP, the result cache or admission.
func (w *serviceMix) directAnalyses() error {
	cache := workcache.New(0)
	for _, r := range append(append([]*request(nil), w.in.analyze...), w.in.bursts...) {
		d, err := timed(func() error {
			_, err := core.AnalyzeAppOn(r.app, r.ranks, r.topo, r.mapping, core.Options{Coverage: r.coverage, Cache: cache})
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", r.key, err)
		}
		w.analyze = append(w.analyze, d*1e3)
	}
	return nil
}

// finish sets the latency percentiles from every traced replay of the
// run, pooled: one replay has too few misses for a p99.
func (w *serviceMix) finish(m map[string]float64) {
	by := map[string][]float64{}
	for _, s := range w.traced {
		by["req"] = append(by["req"], s.ms)
		switch {
		case s.class == classAnalyze && s.hit:
			by["hit"] = append(by["hit"], s.ms)
		case s.class == classAnalyze:
			by["miss"] = append(by["miss"], s.ms)
		case s.class == classDedup:
			by["dedup"] = append(by["dedup"], s.ms)
		case s.class == classUpload:
			by["upload"] = append(by["upload"], s.ms)
		}
	}
	for _, c := range []string{"req", "hit", "miss", "dedup", "upload"} {
		if len(by[c]) > 0 {
			m["service."+c+"_p50_ms"] = median(by[c])
		}
	}
	for _, c := range []string{"req", "hit", "miss"} {
		m["service."+c+"_p99_ms"], _ = percentile(by[c], 99)
	}
	m["core.analyze_p50_ms"] = median(w.analyze)
}
