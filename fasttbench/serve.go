package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fastt/internal/core"
	"fastt/internal/cost"
	"fastt/internal/device"
	"fastt/internal/graph"
	"fastt/internal/kernels"
	"fastt/internal/models"
	"fastt/internal/serve"
	"fastt/internal/sim"
	"fastt/internal/strategy"
)

const (
	// serveClients is the closed loop's client count: each sends its next
	// request only after the previous answer arrived.
	serveClients = 2
	// serveZipf is the skew of key popularity: the rank-r key is requested
	// in proportion to r^-serveZipf.
	serveZipf = 1.1
	// serveMinPerKey guarantees every key a miss and at least two hits per
	// epoch, so every key has a warm_ms median.
	serveMinPerKey = 3
	// serveRankSeed fixes which key gets which popularity rank. It is not
	// the run's seed: the mix of graph sizes among the hot keys, and so the
	// work per epoch, stays the same in every run.
	serveRankSeed = 7
	// reqHeader carries a request's index to the traced handler wrapper.
	reqHeader = "X-Fasttbench-Req"
)

var (
	serveBatches = []int{8, 16}
	serveGPUs    = []int{2, 4}
	// serveSmokeModels is the smoke key set; the full one is every catalog
	// and extras model.
	serveSmokeModels = []string{"MLP", "LeNet", "AlexNet", "VGG-19"}
)

// serveKey is one cache key: a model's data-parallel training graph at a
// per-GPU batch on a regular single-server cluster.
type serveKey struct {
	name      string
	model     string
	samples   int // samples per iteration
	shape     strategy.ClusterShape
	graph     *graph.Graph
	graphJSON []byte
	body      []byte
	fp        string
	sig       graph.Stats
}

// serveReq is one request of an epoch as the client saw it.
type serveReq struct {
	key     int
	source  string
	rtt     time.Duration
	handler time.Duration // traced runs only
}

type serveWorkload struct {
	tr    *tracer
	smoke bool
	keys  []*serveKey
	seq   []int // the epoch's request sequence, as key indexes
	bySig map[graph.Stats]int

	srv     *httptest.Server
	client  *http.Client
	handler atomic.Pointer[http.Handler]

	cold, warm cellTimes
	busyTime   time.Duration
	epochs     int
	served     map[int][]byte // artifact bytes per key, from the first epoch
	errs       []error

	// mu guards reqs, which the clients and the traced handler wrapper
	// both fill in.
	mu   sync.Mutex
	reqs []serveReq

	// traced runs only
	searchMs                           map[int]float64 // this epoch's search time per key
	hitHandler, missHandler, transport []float64
	hitRTT, missWait                   []float64
	stats                              []serve.Stats
}

func newServe(tr *tracer, smoke bool) *serveWorkload {
	return &serveWorkload{tr: tr, smoke: smoke}
}

func (w *serveWorkload) prepare(seed int64) error {
	w.close()
	specs := append(models.Catalog(), models.Extras()...)
	if w.smoke {
		specs = specs[:0]
		for _, name := range serveSmokeModels {
			s, err := models.ByName(name)
			if err != nil {
				return err
			}
			specs = append(specs, s)
		}
	}
	w.keys, w.bySig = nil, map[graph.Stats]int{}
	for _, spec := range specs {
		for _, b := range serveBatches {
			for _, n := range serveGPUs {
				k, err := buildServeKey(spec, b, n)
				if err != nil {
					return err
				}
				w.bySig[k.sig] = len(w.keys)
				w.keys = append(w.keys, k)
			}
		}
	}
	if len(w.bySig) != len(w.keys) {
		return errors.New("two serve keys have the same graph statistics")
	}
	perEpoch := 1000
	if w.smoke {
		perEpoch = 100
	}
	w.seq = zipfSequence(len(w.keys), perEpoch, seed)

	w.cold, w.warm = cellTimes{}, cellTimes{}
	w.busyTime, w.epochs, w.errs = 0, 0, nil
	w.served = map[int][]byte{}
	w.hitHandler, w.missHandler, w.transport = nil, nil, nil
	w.hitRTT, w.missWait, w.stats = nil, nil, nil

	w.install()
	w.srv = httptest.NewServer(http.HandlerFunc(w.route))
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}

	// Warm up the connections and the service's code paths on a key that
	// is not measured: a miss and then hits, from every client at once.
	spec, err := models.ByName("LeNet")
	if err != nil {
		return err
	}
	warmKey, err := buildServeKey(spec, 4, 2)
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		var wg sync.WaitGroup
		errs := make([]error, serveClients)
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				_, _, _, errs[c] = w.post(warmKey.body, -1)
			}(c)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// tokensPerSentence converts a per-GPU batch in sentences into the token
// batch the Transformer builder takes (it assumes 32-token sentences).
const tokensPerSentence = 32

func buildServeKey(spec models.Spec, batch, gpus int) (*serveKey, error) {
	arg := batch
	if spec.Name == "Transformer" {
		arg *= tokensPerSentence
	}
	m, err := spec.Build(arg)
	if err != nil {
		return nil, err
	}
	g, err := graph.BuildDataParallel(m, gpus)
	if err != nil {
		return nil, err
	}
	var gj bytes.Buffer
	if err := g.WriteJSON(&gj); err != nil {
		return nil, err
	}
	shape := strategy.ClusterShape{Servers: 1, GPUsPerServer: gpus}
	body, err := json.Marshal(struct {
		Model   string                `json:"model"`
		Graph   json.RawMessage       `json:"graph"`
		Cluster strategy.ClusterShape `json:"cluster"`
	}{spec.Name, gj.Bytes(), shape})
	if err != nil {
		return nil, err
	}
	return &serveKey{
		name:      fmt.Sprintf("%s/b%d@%d", spec.Name, batch, gpus),
		model:     spec.Name,
		samples:   batch * gpus,
		shape:     shape,
		graph:     g,
		graphJSON: gj.Bytes(),
		body:      body,
		fp:        strategy.Fingerprint(g),
		sig:       g.ComputeStats(),
	}, nil
}

// zipfSequence returns an epoch's requests: key k (popularity rank fixed by
// serveRankSeed) appears max(serveMinPerKey, round(n * pmf(rank))) times,
// and the seed shuffles the order. The multiset is the same in every run,
// so the seed changes only the interleaving.
func zipfSequence(keys, n int, seed int64) []int {
	rank := rand.New(rand.NewSource(serveRankSeed)).Perm(keys)
	var h float64
	for r := 1; r <= keys; r++ {
		h += math.Pow(float64(r), -serveZipf)
	}
	var seq []int
	for r, k := range rank {
		c := int(math.Round(float64(n) * math.Pow(float64(r+1), -serveZipf) / h))
		for i := 0; i < max(serveMinPerKey, c); i++ {
			seq = append(seq, k)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// install starts a fresh service (an empty cache) behind the server.
func (w *serveWorkload) install() *serve.Service {
	cfg := serve.Config{Sched: searchOpts}
	if w.tr != nil {
		cfg.Strategist = w.tracedStrategist()
	}
	svc := serve.New(cfg)
	h := svc.Handler()
	w.handler.Store(&h)
	return svc
}

// route forwards to the current service's handler. When tracing it times
// the handler and files the time under the request's index.
func (w *serveWorkload) route(rw http.ResponseWriter, r *http.Request) {
	h := *w.handler.Load()
	if w.tr == nil {
		h.ServeHTTP(rw, r)
		return
	}
	t0 := time.Now()
	h.ServeHTTP(rw, r)
	d := time.Since(t0)
	if i, err := strconv.Atoi(r.Header.Get(reqHeader)); err == nil && i >= 0 {
		w.mu.Lock()
		w.reqs[i].handler = d
		w.mu.Unlock()
	}
}

// tracedStrategist times each search and files it under its key, which it
// recognizes by the graph's statistics.
func (w *serveWorkload) tracedStrategist() core.Strategist {
	return func(ctx context.Context, g *graph.Graph, cluster *device.Cluster, est cost.Estimator, opts core.Options) (*core.Strategy, error) {
		t0 := time.Now()
		st, err := core.ComputeStrategyCtx(ctx, g, cluster, est, opts)
		d := ms(time.Since(t0))
		if k, ok := w.bySig[g.ComputeStats()]; ok {
			w.mu.Lock()
			w.searchMs[k] = d
			w.mu.Unlock()
		}
		return st, err
	}
}

// post sends one request and returns the artifact bytes of the answer.
func (w *serveWorkload) post(body []byte, idx int) (source string, art []byte, rtt time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, w.srv.URL+"/v1/compute", bytes.NewReader(body))
	if err != nil {
		return "", nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if idx >= 0 && w.tr != nil {
		req.Header.Set(reqHeader, strconv.Itoa(idx))
	}
	t0 := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		return "", nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt = time.Since(t0)
	if err != nil {
		return "", nil, rtt, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, rtt, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	// The envelope is {"cached":..,"key":..,"artifact":<artifact>}\n.
	i := bytes.Index(b, []byte(`,"artifact":`))
	if i < 0 || !bytes.HasSuffix(b, []byte("}\n")) {
		return "", nil, rtt, errors.New("malformed response envelope")
	}
	return resp.Header.Get(serve.CacheHeader), b[i+len(`,"artifact":`) : len(b)-2], rtt, nil
}

func (w *serveWorkload) busy() time.Duration { return w.busyTime }

// round is one epoch: a fresh service (empty cache) answers the whole
// request sequence from a closed loop of serveClients clients.
func (w *serveWorkload) round() (attempted, failed int) {
	svc := w.install()
	w.reqs = make([]serveReq, len(w.seq))
	w.searchMs = map[int]float64{}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		arts  = map[int][]byte{}
		errs  []error
		nfail atomic.Int64
	)
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(w.seq) {
					return
				}
				k := w.seq[i]
				src, art, rtt, err := w.post(w.keys[k].body, i)
				if err != nil {
					nfail.Add(1)
					mu.Lock()
					errs = append(errs, fmt.Errorf("%s: %w", w.keys[k].name, err))
					mu.Unlock()
					continue
				}
				w.mu.Lock()
				w.reqs[i].key, w.reqs[i].source, w.reqs[i].rtt = k, src, rtt
				w.mu.Unlock()
				mu.Lock()
				if prev, ok := arts[k]; !ok {
					arts[k] = art
				} else if !bytes.Equal(prev, art) {
					errs = append(errs, fmt.Errorf("%s: %s answer differs from the key's earlier answer", w.keys[k].name, src))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.busyTime += time.Since(t0)
	if w.tr != nil {
		w.awaitHandlers()
	}
	w.epochs++

	// Tally the X-Fastt-Cache headers and compare with the service's own
	// counters; record the timings by key.
	var hits, misses, coalesced int64
	for i := range w.reqs {
		r := &w.reqs[i]
		name := w.keys[w.seq[i]].name
		switch r.source {
		case string(serve.SourceHit):
			hits++
			w.warm.add(name, r.rtt)
		case string(serve.SourceComputed):
			misses++
			w.cold.add(name, r.rtt)
		case string(serve.SourceCoalesced):
			coalesced++
		}
	}
	st := svc.Stats()
	if st.Cache.Hits != hits || st.Cache.Misses != misses+coalesced || st.Coalesced != coalesced ||
		st.Searches != misses || st.SearchErrors != 0 || st.Rejected != 0 {
		errs = append(errs, fmt.Errorf("stats %+v disagree with headers: %d hits, %d misses, %d coalesced",
			st.Cache, hits, misses, coalesced))
	}
	for k, art := range arts {
		if prev, ok := w.served[k]; !ok {
			w.served[k] = art
		} else if !bytes.Equal(prev, art) {
			errs = append(errs, fmt.Errorf("%s: artifact changed between epochs", w.keys[k].name))
		}
	}
	if w.tr != nil {
		w.traceEpoch(st)
	}
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "fasttbench: serve: %v\n", err)
	}
	w.errs = append(w.errs, errs...)
	return len(w.seq), int(nfail.Load())
}

// awaitHandlers waits, for at most ten seconds, until the wrapper has filed
// the handler time of every answered request: a client can read the whole
// response before the handler returns.
func (w *serveWorkload) awaitHandlers() {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		missing := false
		w.mu.Lock()
		for _, r := range w.reqs {
			missing = missing || (r.source != "" && r.handler == 0)
		}
		w.mu.Unlock()
		if !missing {
			return
		}
	}
}

// traceEpoch files one epoch's handler, transport and miss-wait times.
func (w *serveWorkload) traceEpoch(st serve.Stats) {
	w.stats = append(w.stats, st)
	for _, r := range w.reqs {
		if r.source == "" {
			continue
		}
		w.transport = append(w.transport, ms(r.rtt-r.handler))
		switch r.source {
		case string(serve.SourceHit):
			w.hitHandler = append(w.hitHandler, ms(r.handler))
			w.hitRTT = append(w.hitRTT, ms(r.rtt))
		case string(serve.SourceComputed):
			w.missHandler = append(w.missHandler, ms(r.handler))
			if s, ok := w.searchMs[r.key]; ok {
				w.missWait = append(w.missWait, ms(r.handler)-s)
			}
		}
	}
}

func (w *serveWorkload) close() {
	if w.srv != nil {
		w.srv.Close()
		w.client.CloseIdleConnections()
		w.srv = nil
	}
}

// report checks the served artifacts against the benchmark's own
// computations and simulates each distinct one.
func (w *serveWorkload) report() (map[string]float64, int, error) {
	w.close()
	errs := append([]error(nil), w.errs...)
	var samples []float64
	ctx := context.Background()
	for k, key := range w.keys {
		got, ok := w.served[k]
		if !ok {
			continue
		}
		var art strategy.Artifact
		if err := json.Unmarshal(got, &art); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", key.name, err))
			continue
		}
		if art.Fingerprint != key.fp {
			errs = append(errs, fmt.Errorf("%s: served fingerprint %s, computed %s", key.name, art.Fingerprint, key.fp))
		}
		cluster, err := device.NewCluster(key.shape.Servers, key.shape.GPUsPerServer)
		if err != nil {
			return nil, 0, err
		}
		st, err := core.ComputeStrategyCtx(ctx, key.graph, cluster, kernels.NewDefaultOracle(cluster), searchOpts)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: direct search: %w", key.name, err))
			continue
		}
		direct := st.Artifact
		direct.Provenance = strategy.Provenance{Model: key.model, Origin: "fastt-serve", Cluster: key.shape}
		want, err := json.Marshal(&direct)
		if err != nil {
			return nil, 0, err
		}
		if !bytes.Equal(got, want) {
			errs = append(errs, fmt.Errorf("%s: served artifact differs from a direct search", key.name))
		}
		g, err := art.Materialize(key.graph)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", key.name, err))
			continue
		}
		avg, err := simulate(sim.DefaultExecutor(cluster), g, &art)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", key.name, err))
			continue
		}
		samples = append(samples, float64(key.samples)/avg.Seconds())
	}
	if len(w.served) != len(w.keys) {
		errs = append(errs, fmt.Errorf("%d of %d keys were served", len(w.served), len(w.keys)))
	}
	return map[string]float64{
		"cold_ms":           w.cold.geomeanOfMedians(),
		"warm_ms":           w.warm.geomeanOfMedians(),
		"sim_samples_per_s": geomean(samples),
	}, w.epochs * len(w.seq), errors.Join(errs...)
}

// layers returns the serve workload's per-layer metrics. Decoding and
// fingerprinting are timed directly on every key's request graph, three
// times each; like warm_ms they are per-key medians, then a geometric mean
// over keys.
func (w *serveWorkload) layers() (map[string]float64, error) {
	var dec, decAlloc, fp, kb []float64
	var m0, m1 goruntime.MemStats
	for _, key := range w.keys {
		var d, f []float64
		var alloc uint64
		for i := 0; i < 3; i++ {
			goruntime.ReadMemStats(&m0)
			t0 := time.Now()
			g, err := graph.ReadJSON(bytes.NewReader(key.graphJSON))
			d = append(d, ms(time.Since(t0)))
			goruntime.ReadMemStats(&m1)
			if err != nil {
				return nil, err
			}
			alloc += m1.TotalAlloc - m0.TotalAlloc
			t0 = time.Now()
			strategy.Fingerprint(g)
			f = append(f, ms(time.Since(t0)))
		}
		dec = append(dec, median(d))
		fp = append(fp, median(f))
		decAlloc = append(decAlloc, float64(alloc)/3/1e6)
		kb = append(kb, float64(len(key.body))/1024)
	}
	var hits, requests, coalesced, searches float64
	for _, st := range w.stats {
		hits += float64(st.Cache.Hits)
		requests += float64(st.Cache.Hits + st.Cache.Misses)
		coalesced += float64(st.Coalesced)
		searches += float64(st.Searches)
	}
	epochs := float64(max(1, len(w.stats)))
	var err error
	if len(w.hitRTT) < 1000 && !w.smoke {
		err = fmt.Errorf("hit_p99_ms rests on %d hits, want at least 1000", len(w.hitRTT))
	}
	return map[string]float64{
		"strategy.fingerprint_ms": geomean(fp),
		"graph.decode_ms":         geomean(dec),
		"graph.decode_alloc_mb":   geomean(decAlloc),
		"graph.request_kb":        geomean(kb),
		"serve.hit_handler_ms":    median(w.hitHandler),
		"serve.miss_handler_ms":   median(w.missHandler),
		"serve.transport_ms":      median(w.transport),
		"serve.miss_wait_ms":      median(w.missWait),
		"serve.hit_p99_ms":        percentile(w.hitRTT, 99),
		"serve.hit_ratio":         hits / math.Max(1, requests),
		"serve.coalesced":         coalesced / epochs,
		"serve.searches":          searches / epochs,
	}, err
}

// minRounds is two epochs when tracing, so hit_p99_ms rests on at least
// 1000 hits.
func (w *serveWorkload) minRounds() int {
	if w.tr != nil {
		return 2
	}
	return 1
}
