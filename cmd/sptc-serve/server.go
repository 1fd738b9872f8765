package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/dist"
	"sparta/internal/einsum"
	"sparta/internal/engine"
	"sparta/internal/gen"
	"sparta/internal/hetmem"
	"sparta/internal/obs"
	"sparta/internal/parallel"
)

// serverConfig sizes one server instance (all fields optional; zero values
// mean "default/disabled" as documented on the flags).
type serverConfig struct {
	Threads      int
	CacheEntries int
	CacheBytes   uint64
	DRAMBudget   uint64
	MaxInflight  int
	QueueWait    time.Duration
	// Tracer, when non-nil, records one span tree per request on a private
	// track (exported at /debug/trace and by -trace on shutdown).
	Tracer *obs.Tracer
	// AccessLog, when non-nil, receives one JSON line per tensor/contract
	// request (request ID, status, outcome, per-phase walls, tags).
	AccessLog io.Writer

	// ShardURLs lists remote worker base URLs; when non-empty, AlgSparta
	// contractions run sharded across them (DESIGN.md §15). Mutually
	// exclusive with LocalShards.
	ShardURLs []string
	// LocalShards, when >0, runs AlgSparta contractions sharded across this
	// many in-process executors (each with a private plan cache) — the
	// single-box scatter/gather mode.
	LocalShards int
	// ShardTimeout caps each shard attempt (0 = no per-attempt timeout).
	ShardTimeout time.Duration
	// ShardRetries is the executor attempt count per shard including the
	// primary (0 = coordinator default: primary plus one failover).
	ShardRetries int
}

// server is the HTTP front end: a tensor store, the caching engine, and the
// two admission gates. All handler state is safe for concurrent use.
type server struct {
	eng     *engine.Engine
	reg     *obs.Registry
	adm     engine.Admission
	threads int

	queueWait time.Duration
	inflight  chan struct{} // counting semaphore; nil = unbounded
	// waiters counts requests currently blocked on an inflight slot — the
	// queue depth the Retry-After header is derived from.
	waiters atomic.Int64

	tracer   *obs.Tracer
	accessMu sync.Mutex
	accessW  io.Writer

	// admMu serializes admission decisions so concurrent requests cannot
	// jointly oversubscribe the budget; admitted holds the summed admitted
	// footprints currently running.
	admMu    sync.Mutex
	admitted uint64

	// coord, when non-nil, executes AlgSparta contractions sharded across
	// in-process or remote workers instead of through s.eng directly.
	coord *dist.Coordinator

	mu      sync.RWMutex
	tensors map[string]*coo.Tensor

	inflightN atomic.Int64 // backs the gauge (obs gauges have no atomic add)
	gInflight *obs.Gauge
}

func newServer(cfg serverConfig) *server {
	reg := obs.NewRegistry()
	threads := cfg.Threads
	if threads < 1 {
		threads = parallel.DefaultThreads()
	}
	s := &server{
		eng: engine.New(engine.Config{
			CacheEntries: cfg.CacheEntries,
			CacheBytes:   cfg.CacheBytes,
			Metrics:      reg,
		}),
		reg:       reg,
		adm:       engine.Admission{DRAMBudget: cfg.DRAMBudget},
		threads:   threads,
		queueWait: cfg.QueueWait,
		tracer:    cfg.Tracer,
		accessW:   cfg.AccessLog,
		tensors:   map[string]*coo.Tensor{},
		gInflight: reg.Gauge("sptc_serve_inflight", "contractions currently executing"),
	}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	if execs := shardExecutors(cfg, reg); len(execs) > 0 {
		// Executor names are generated unique, so NewCoordinator cannot fail.
		s.coord, _ = dist.NewCoordinator(dist.Config{
			Executors:    execs,
			ShardTimeout: cfg.ShardTimeout,
			MaxAttempts:  cfg.ShardRetries,
			Metrics:      reg,
		})
	}
	return s
}

// shardExecutors builds the shard fleet from the config: remote HTTP workers
// when URLs are given, otherwise LocalShards in-process executors. Each local
// shard gets a private plan cache sized like the front engine's.
func shardExecutors(cfg serverConfig, reg *obs.Registry) []dist.Executor {
	if len(cfg.ShardURLs) > 0 {
		execs := make([]dist.Executor, len(cfg.ShardURLs))
		for i, u := range cfg.ShardURLs {
			execs[i] = dist.NewHTTP(u, dist.HTTPConfig{})
		}
		return execs
	}
	if cfg.LocalShards <= 0 {
		return nil
	}
	execs := make([]dist.Executor, cfg.LocalShards)
	for i := range execs {
		execs[i] = dist.NewLocal(fmt.Sprintf("local-%d", i), dist.LocalConfig{
			CacheEntries: cfg.CacheEntries,
			CacheBytes:   cfg.CacheBytes,
			Metrics:      reg,
		})
	}
	return execs
}

// loadDemo installs two synthetic contractible tensors (demoA: 40x30x50,
// demoB: 50x35x20; spec "abc,cde->abde") for smoke tests.
func (s *server) loadDemo() {
	s.mu.Lock()
	s.tensors["demoA"] = gen.Random([]uint64{40, 30, 50}, 4000, 1)
	s.tensors["demoB"] = gen.Random([]uint64{50, 35, 20}, 3000, 2)
	s.mu.Unlock()
}

// handler builds the route table on top of the obs exposition mux, so
// /metrics, /debug/pprof, and /debug/vars ride along.
func (s *server) handler() http.Handler {
	mux := obs.NewMux(s.reg)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("PUT /tensors/{name}", s.instrumented("tensors", s.handlePutTensor))
	mux.HandleFunc("GET /tensors/{name}", s.instrumented("tensors", s.handleGetTensor))
	mux.HandleFunc("POST /contract", s.instrumented("contract", s.handleContract))
	mux.HandleFunc("POST /shard/contract", s.instrumented("shard", s.handleShardContract))
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	return mux
}

// statusWriter captures the status code for the access log and RED metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// instrumented wraps a handler with the request lifecycle: assign (or adopt
// from X-Request-ID) a request ID, open a ReqTrace on a private trace track,
// thread it through the context so engine and core phases land on it, then
// observe the wall into the RED histogram and emit one access-log line.
func (s *server) instrumented(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		rt := obs.StartRequest(s.tracer, route, id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r.WithContext(obs.WithReq(r.Context(), rt)))
		wall := time.Since(start)
		s.reg.Histogram("sptc_serve_request_seconds", "request wall time by route",
			obs.LatencyBuckets, "route", route).Observe(wall.Seconds())
		rt.Finish()
		s.writeAccess(rt, r, sw.status, wall)
	}
}

// accessLine is one structured access-log record: everything needed to find
// the request again — its ID resolves to a span tree in the Chrome trace —
// plus the per-phase walls so slow requests are attributable without the
// trace at all.
type accessLine struct {
	TS        string            `json:"ts"`
	RequestID string            `json:"request_id"`
	Route     string            `json:"route"`
	Method    string            `json:"method"`
	Path      string            `json:"path"`
	Status    int               `json:"status"`
	WallNS    int64             `json:"wall_ns"`
	Phases    map[string]int64  `json:"phases,omitempty"`
	Tags      map[string]string `json:"tags,omitempty"`
}

func (s *server) writeAccess(rt *obs.ReqTrace, r *http.Request, status int, wall time.Duration) {
	if s.accessW == nil {
		return
	}
	line := accessLine{
		TS:        time.Now().UTC().Format(time.RFC3339Nano),
		RequestID: rt.ID(),
		Route:     rt.Route(),
		Method:    r.Method,
		Path:      r.URL.Path,
		Status:    status,
		WallNS:    wall.Nanoseconds(),
		Tags:      rt.Tags(),
	}
	if ph := rt.Phases(); len(ph) > 0 {
		line.Phases = make(map[string]int64, len(ph))
		for _, p := range ph {
			line.Phases[p.Name] += p.Dur.Nanoseconds() // repeated phases sum
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	s.accessMu.Lock()
	_, _ = s.accessW.Write(buf)
	s.accessMu.Unlock()
}

// handleTrace serves the accumulated Chrome trace (load into Perfetto or
// chrome://tracing; each request is one track named by its request ID's
// span tree).
func (s *server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	if s.tracer == nil {
		http.Error(w, "tracing disabled (start with -trace)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.tracer.WriteJSON(w)
}

// countReq folds one request outcome into the metrics registry and tags it
// onto the request trace so the access log carries it too. Shed outcomes
// additionally feed the by-reason shed counter the load generator reads.
func (s *server) countReq(r *http.Request, route, outcome string) {
	s.reg.Counter("sptc_serve_requests_total", "requests by route and outcome",
		"route", route, "outcome", outcome).Inc()
	if reason, ok := strings.CutPrefix(outcome, "shed_"); ok {
		s.reg.Counter("sptc_serve_shed_total", "requests shed by reason",
			"reason", reason).Inc()
	}
	obs.ReqFrom(r.Context()).SetTag("outcome", outcome)
}

// retryAfterSecs derives the Retry-After hint on 503s from the current queue
// depth: with W requests already waiting for one of C slots, a newcomer's
// expected wait is on the order of W/C service times, clamped to [1, 30]s.
func (s *server) retryAfterSecs() int {
	c := 1
	if s.inflight != nil {
		c = cap(s.inflight)
	}
	secs := 1 + int(s.waiters.Load())/c
	if secs > 30 {
		secs = 30
	}
	return secs
}

// shed writes a 503 with the Retry-After hint and records the outcome.
func (s *server) shed(w http.ResponseWriter, r *http.Request, outcome, msg string) {
	s.countReq(r, "contract", outcome)
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
	writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The connection is gone if this fails; nothing useful to do.
	_ = json.NewEncoder(w).Encode(v)
}

type errorReply struct {
	Error string `json:"error"`
}

// tensorInfo is the metadata reply for uploads and GETs.
type tensorInfo struct {
	Name        string   `json:"name"`
	Order       int      `json:"order"`
	Dims        []uint64 `json:"dims"`
	NNZ         int      `json:"nnz"`
	Fingerprint string   `json:"fingerprint"`
}

func (s *server) infoFor(name string, t *coo.Tensor) tensorInfo {
	return tensorInfo{
		Name:        name,
		Order:       t.Order(),
		Dims:        t.Dims,
		NNZ:         t.NNZ(),
		Fingerprint: engine.FingerprintTensor(t, s.threads).String(),
	}
}

func (s *server) handlePutTensor(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Sniff the body: binary SPTN uploads (the dist executor's Y replication
	// path) start with the magic; everything else parses as FROSTT .tns text.
	br := bufio.NewReader(r.Body)
	var t *coo.Tensor
	var err error
	if head, _ := br.Peek(4); string(head) == "SPTN" {
		t, err = coo.ReadBin(br)
	} else {
		t, err = coo.ReadTNS(br)
	}
	if err != nil {
		s.countReq(r, "tensors", "bad_request")
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
		return
	}
	s.mu.Lock()
	s.tensors[name] = t
	s.mu.Unlock()
	s.countReq(r, "tensors", "ok")
	writeJSON(w, http.StatusOK, s.infoFor(name, t))
}

func (s *server) handleGetTensor(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.RLock()
	t, ok := s.tensors[name]
	s.mu.RUnlock()
	if !ok {
		s.countReq(r, "tensors", "not_found")
		writeJSON(w, http.StatusNotFound, errorReply{Error: fmt.Sprintf("no tensor %q", name)})
		return
	}
	s.countReq(r, "tensors", "ok")
	writeJSON(w, http.StatusOK, s.infoFor(name, t))
}

// contractRequest is the POST /contract body. Algorithm: "sparta"
// (default), "spa", "coohta", "twophase". Kernel: "flat" (default),
// "chained". Threads: <1 or above the server's -threads means -threads.
type contractRequest struct {
	X         string `json:"x"`
	Y         string `json:"y"`
	Spec      string `json:"spec"`
	Algorithm string `json:"algorithm"`
	Kernel    string `json:"kernel"`
	Threads   int    `json:"threads"`
	TimeoutMS int    `json:"timeout_ms"`
}

type contractReply struct {
	RequestID   string   `json:"request_id,omitempty"`
	Spec        string   `json:"spec"`
	OutDims     []uint64 `json:"out_dims"`
	NNZ         int      `json:"nnz"`
	Fingerprint string   `json:"fingerprint"`
	HtYReused   bool     `json:"hty_reused"`
	CacheHits   uint64   `json:"cache_hits"`
	CacheMisses uint64   `json:"cache_misses"`
	WallNS      int64    `json:"wall_ns"`
	// ExecutionTier reports which path ran: "dram" (in-memory fast path) or
	// "streamed" (windowed out-of-core degrade tier). Clients watching for
	// capacity pressure alert on the streamed fraction instead of on 503s.
	ExecutionTier string `json:"execution_tier,omitempty"`
	// Windows is the streamed window count (0 on the dram tier).
	Windows int `json:"windows,omitempty"`
	// Shards / ShardRetries report the scatter/gather fan-out when the server
	// runs in sharded mode (-local-shards / -shards): how many shard legs
	// were dispatched and how many failover attempts they consumed.
	Shards       int `json:"shards,omitempty"`
	ShardRetries int `json:"shard_retries,omitempty"`
}

func parseAlgorithm(name string) (core.Algorithm, error) {
	switch name {
	case "", "sparta":
		return core.AlgSparta, nil
	case "spa":
		return core.AlgSPA, nil
	case "coohta":
		return core.AlgCOOHtA, nil
	case "twophase":
		return core.AlgTwoPhase, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", name)
}

func parseKernel(name string) (core.Kernel, error) {
	switch name {
	case "", "flat":
		return core.KernelFlat, nil
	case "chained":
		return core.KernelChained, nil
	}
	return 0, fmt.Errorf("unknown kernel %q", name)
}

// acquireSlot takes an inflight slot, waiting up to queueWait. It reports
// whether the slot was obtained; the caller must releaseSlot on true.
func (s *server) acquireSlot(ctx context.Context) bool {
	if s.inflight == nil {
		return true
	}
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
	}
	if s.queueWait <= 0 {
		return false
	}
	s.waiters.Add(1)
	defer s.waiters.Add(-1)
	timer := time.NewTimer(s.queueWait)
	defer timer.Stop()
	select {
	case s.inflight <- struct{}{}:
		return true
	case <-timer.C:
		return false
	case <-ctx.Done():
		return false
	}
}

func (s *server) releaseSlot() {
	if s.inflight != nil {
		<-s.inflight
	}
}

func (s *server) handleContract(w http.ResponseWriter, r *http.Request) {
	var req contractRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.countReq(r, "contract", "bad_request")
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "bad JSON: " + err.Error()})
		return
	}
	alg, err := parseAlgorithm(req.Algorithm)
	if err == nil {
		var kerr error
		var k core.Kernel
		if k, kerr = parseKernel(req.Kernel); kerr != nil {
			err = kerr
		} else {
			err = s.contract(w, r, req, alg, k)
		}
	}
	if err != nil {
		s.countReq(r, "contract", "bad_request")
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
	}
}

// contract runs the admission gates and the contraction; it returns an
// error only for bad requests (the caller writes 400), and writes every
// other reply itself.
func (s *server) contract(w http.ResponseWriter, r *http.Request, req contractRequest, alg core.Algorithm, kernel core.Kernel) error {
	rt := obs.ReqFrom(r.Context())
	rt.SetTag("spec", req.Spec)
	rt.SetTag("x", req.X)
	rt.SetTag("y", req.Y)

	s.mu.RLock()
	x, okX := s.tensors[req.X]
	y, okY := s.tensors[req.Y]
	s.mu.RUnlock()
	if !okX {
		return fmt.Errorf("no tensor %q", req.X)
	}
	if !okY {
		return fmt.Errorf("no tensor %q", req.Y)
	}

	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	threads := clampThreads(req.Threads, s.threads)
	opt := core.Options{
		Algorithm: alg,
		Kernel:    kernel,
		Threads:   threads,
		Metrics:   s.reg,
	}

	// Gate 1: concurrency. Queue briefly, then shed.
	spQ := rt.StartPhase("queue wait")
	got := s.acquireSlot(ctx)
	spQ.End()
	if !got {
		s.shed(w, r, "shed_inflight", "server at max inflight contractions")
		return nil
	}
	defer s.releaseSlot()
	s.gInflight.Set(float64(s.inflightN.Add(1)))
	defer func() { s.gInflight.Set(float64(s.inflightN.Add(-1))) }()

	// Sharded mode: AlgSparta requests scatter/gather across the shard fleet
	// instead of running on the front engine. The front's DRAM admission gate
	// does not apply — each shard sees only its partition (~1/S of X) and
	// local executors size their own caches; remote workers run their own
	// gates and shed upstream.
	if s.coord != nil && alg == core.AlgSparta {
		return s.contractSharded(w, r, req, opt)
	}

	// Gate 2: memory. Only the Sparta algorithm goes through the prepared
	// path, so only it has the footprint model; the baselines run ungated
	// (they exist for A/B comparison, not production serving). Oversized
	// requests no longer shed outright: when the prepared table fits but the
	// full working set does not, the windowed out-of-core driver runs
	// instead, and only a table that cannot fit at all is refused.
	spA := rt.StartPhase("admission")
	adm, aerr := s.admit(ctx, req.Spec, x, y, opt)
	spA.End()
	if aerr != nil {
		return aerr
	}
	defer adm.release()
	tier := adm.tier
	rt.SetTag("execution_tier", tier.String())
	s.reg.Counter("sptc_serve_tier_total", "contract requests by execution tier",
		"tier", tier.String()).Inc()
	if tier == engine.TierShed {
		s.shed(w, r, "shed_memory",
			"estimated footprint exceeds DRAM budget (prepared table ht_Y alone does not fit)")
		return nil
	}

	start := time.Now()
	spC := rt.StartPhase("contract")
	var (
		z   *coo.Tensor
		rep *core.Report
		err error
	)
	switch {
	case tier == engine.TierStreamed:
		z, rep, err = s.contractStreamed(ctx, x, adm, opt)
	case adm.pr != nil:
		z, rep, err = engine.ContractPrepared(ctx, adm.pr, adm.hit, x, adm.ein.CmodesX, opt)
	default:
		z, rep, err = s.eng.Contract(ctx, x, y, adm.ein.CmodesX, adm.ein.CmodesY, opt)
	}
	if err == nil {
		err = adm.ein.Finish(z, opt)
	}
	spC.End()
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		s.countReq(r, "contract", "timeout")
		writeJSON(w, http.StatusGatewayTimeout, errorReply{Error: err.Error()})
		return nil
	case errors.Is(err, context.Canceled):
		s.countReq(r, "contract", "canceled")
		// The client is gone; status is moot but 499-style close is not
		// expressible, so use 503.
		writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: err.Error()})
		return nil
	default:
		return err
	}

	// Fold the kernel's own stage timings into the request record: the span
	// tree shows them as core spans; the access log gets them as phases.
	rt.AddPhase("stage_input", rep.StageWall[core.StageInput])
	rt.AddPhase("stage_search", rep.StageWall[core.StageSearch])
	rt.AddPhase("stage_accum", rep.StageWall[core.StageAccum])
	rt.AddPhase("stage_write", rep.StageWall[core.StageWrite])
	rt.AddPhase("stage_sort", rep.StageWall[core.StageSort])
	rt.SetTag("hty_reused", strconv.FormatBool(rep.HtYReused))
	rt.SetTag("nnz_z", strconv.Itoa(z.NNZ()))
	if rep.Streamed {
		rt.SetTag("windows", strconv.Itoa(rep.Windows))
	}

	st := s.eng.Stats()
	s.countReq(r, "contract", "ok")
	s.reg.Histogram("sptc_serve_contract_seconds", "contraction wall time",
		[]float64{0.001, 0.01, 0.1, 1, 10}).Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, contractReply{
		RequestID:     rt.ID(),
		Spec:          req.Spec,
		OutDims:       z.Dims,
		NNZ:           z.NNZ(),
		Fingerprint:   engine.FingerprintTensor(z, threads).String(),
		HtYReused:     rep.HtYReused,
		CacheHits:     st.Hits,
		CacheMisses:   st.Misses,
		WallNS:        time.Since(start).Nanoseconds(),
		ExecutionTier: tier.String(),
		Windows:       rep.Windows,
	})
	return nil
}

// contractSharded runs one request through the coordinator: partition X,
// fan out to the shard executors, merge the sorted runs. Output is bitwise
// identical to the one-shot path (internal/dist oracle suite). Called with
// the inflight slot already held; returns an error only for bad requests.
func (s *server) contractSharded(w http.ResponseWriter, r *http.Request, req contractRequest, opt core.Options) error {
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	rt := obs.ReqFrom(r.Context())
	s.mu.RLock()
	x, okX := s.tensors[req.X]
	y, okY := s.tensors[req.Y]
	s.mu.RUnlock()
	if !okX {
		return fmt.Errorf("no tensor %q", req.X)
	}
	if !okY {
		return fmt.Errorf("no tensor %q", req.Y)
	}

	start := time.Now()
	spC := rt.StartPhase("contract")
	z, rep, err := s.coord.Einsum(obs.WithReq(ctx, rt), req.Spec, x, y, opt)
	spC.End()
	var se *dist.ShardError
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		s.countReq(r, "contract", "timeout")
		writeJSON(w, http.StatusGatewayTimeout, errorReply{Error: err.Error()})
		return nil
	case errors.Is(err, context.Canceled):
		s.countReq(r, "contract", "canceled")
		writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: err.Error()})
		return nil
	case errors.As(err, &se):
		// Every failover attempt for some shard failed: the fleet cannot
		// serve this request right now. Named shed reason, retryable 503.
		s.shed(w, r, "shed_shards",
			fmt.Sprintf("shard %s failed after %d attempts: %v", se.Shard, se.Attempts, se.Err))
		return nil
	default:
		return err
	}

	rt.AddPhase("stage_input", rep.StageWall[core.StageInput])
	rt.AddPhase("stage_search", rep.StageWall[core.StageSearch])
	rt.AddPhase("stage_accum", rep.StageWall[core.StageAccum])
	rt.AddPhase("stage_write", rep.StageWall[core.StageWrite])
	rt.AddPhase("stage_sort", rep.StageWall[core.StageSort])
	rt.SetTag("hty_reused", strconv.FormatBool(rep.HtYReused))
	rt.SetTag("nnz_z", strconv.Itoa(z.NNZ()))

	s.countReq(r, "contract", "ok")
	s.reg.Histogram("sptc_serve_contract_seconds", "contraction wall time",
		[]float64{0.001, 0.01, 0.1, 1, 10}).Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, contractReply{
		RequestID:     rt.ID(),
		Spec:          req.Spec,
		OutDims:       z.Dims,
		NNZ:           z.NNZ(),
		Fingerprint:   engine.FingerprintTensor(z, opt.Threads).String(),
		HtYReused:     rep.HtYReused,
		WallNS:        time.Since(start).Nanoseconds(),
		ExecutionTier: "sharded",
		Windows:       rep.Windows,
		Shards:        rep.Shards,
		ShardRetries:  rep.ShardRetries,
	})
	return nil
}

// handleShardContract is the worker side of the coordinator→worker hop: the
// shard's X partition arrives as a binary SPTN body, Y is referenced by the
// name the executor registered it under, and the reply is binary Z plus the
// full core report in the X-Sptc-Report header. The request ID arrives via
// X-Request-ID, so this span tree joins the coordinator's request.
func (s *server) handleShardContract(w http.ResponseWriter, r *http.Request) {
	fail := func(status int, msg string) {
		s.countReq(r, "shard", "bad_request")
		writeJSON(w, status, errorReply{Error: msg})
	}
	q := r.URL.Query()
	yName := q.Get("y")
	s.mu.RLock()
	y, okY := s.tensors[yName]
	s.mu.RUnlock()
	if !okY {
		fail(http.StatusNotFound, fmt.Sprintf("no tensor %q", yName))
		return
	}
	cx, err := dist.ParseModesCSV(q.Get("cx"))
	if err != nil {
		fail(http.StatusBadRequest, "cx: "+err.Error())
		return
	}
	cy, err := dist.ParseModesCSV(q.Get("cy"))
	if err != nil {
		fail(http.StatusBadRequest, "cy: "+err.Error())
		return
	}
	kernel, err := parseKernel(q.Get("kernel"))
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	threads := s.threads
	if ts := q.Get("threads"); ts != "" {
		if threads, err = strconv.Atoi(ts); err != nil || threads < 1 {
			fail(http.StatusBadRequest, "bad threads value")
			return
		}
		threads = clampThreads(threads, s.threads)
	}
	x, err := coo.ReadBin(r.Body)
	if err != nil {
		fail(http.StatusBadRequest, "decoding X: "+err.Error())
		return
	}

	ctx := r.Context()
	rt := obs.ReqFrom(ctx)
	rt.SetTag("y", yName)
	opt := core.Options{
		Algorithm: core.AlgSparta,
		Kernel:    kernel,
		Threads:   threads,
		Metrics:   s.reg,
		// The partition is request-local: let the kernel permute it in place.
		InPlace: true,
	}
	z, rep, err := s.eng.Contract(ctx, x, y, cx, cy, opt)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.countReq(r, "shard", "error")
		writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: err.Error()})
		return
	}
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	rt.SetTag("nnz_z", strconv.Itoa(z.NNZ()))
	s.countReq(r, "shard", "ok")
	if buf, err := json.Marshal(rep); err == nil {
		w.Header().Set("X-Sptc-Report", string(buf))
	}
	w.Header().Set("Content-Type", "application/x-sptn")
	// The connection is gone if this fails; nothing useful to do.
	_ = z.WriteBin(w)
}

// contractStreamed runs the degrade tier: X (already resident) is permuted
// to contraction order, sorted, and walked window by window against the
// cached prepared table, so only one window's accumulators and staging are
// ever hot — the request runs inside the budget instead of being shed. A
// spec that permutes the output must re-sort Z afterwards, which
// materializes heap copies of every column anyway, so Z spilling is only
// honored for identity-output specs.
func (s *server) contractStreamed(ctx context.Context, x *coo.Tensor, adm admission, opt core.Options) (*coo.Tensor, *core.Report, error) {
	xs, err := core.NewTensorStream(x, adm.ein.CmodesX, adm.res.WindowNNZ, opt.Threads, false)
	if err != nil {
		return nil, nil, err
	}
	return core.ContractStream(ctx, xs, adm.pr, core.StreamOptions{
		Options: opt,
		SpillZ:  adm.res.SpillZ && adm.ein.IdentityOut,
	})
}

// admission is the gate's decision for one request: the execution tier and
// its residency plan, the parsed spec, and — on the prepared (AlgSparta)
// path — the plan-cache lookup's prepared Y and hit flag, which the
// contraction uses as is so Y is looked up once per request. release
// returns the admitted footprint and is always non-nil.
type admission struct {
	tier    engine.Tier
	res     hetmem.Residency
	ein     *einsum.Plan
	pr      *core.PreparedY
	hit     bool
	release func()
}

// admit parses the spec, prepares Y through the plan cache for AlgSparta,
// and runs the DRAM admission gate. Requests outside the prepared path, or
// with admission disabled, get TierDRAM with a no-op release.
func (s *server) admit(ctx context.Context, spec string, x, y *coo.Tensor, opt core.Options) (adm admission, err error) {
	adm.release = func() {}
	adm.tier = engine.TierDRAM
	if adm.ein, err = einsum.Parse(spec); err != nil {
		return adm, err
	}
	if err := adm.ein.CheckRanks(spec, x.Order(), y.Order()); err != nil {
		return adm, err
	}
	if opt.Algorithm != core.AlgSparta {
		return adm, nil
	}
	if err := ctx.Err(); err != nil {
		return adm, err
	}
	if adm.pr, adm.hit, err = s.eng.PrepareCtx(ctx, y, adm.ein.CmodesY, opt); err != nil {
		return adm, err
	}
	if s.adm.DRAMBudget == 0 {
		return adm, nil
	}
	fp := engine.EstimateFootprint(x.NNZ(), adm.pr)
	s.admMu.Lock()
	adm.tier, adm.res = s.adm.Plan(fp, opt.Threads, x.NNZ(), s.admitted)
	// A fully contracted X has one sub-tensor spanning everything and cannot
	// be windowed; it either fits whole or must still be shed.
	if adm.tier == engine.TierStreamed && len(adm.ein.CmodesX) >= x.Order() {
		adm.tier = engine.TierShed
	}
	if adm.tier == engine.TierShed {
		s.admMu.Unlock()
		return adm, nil
	}
	// Streamed requests account only their windowed resident demand — the
	// point of the degrade tier is that concurrent work can still fit.
	total := fp.Total(opt.Threads)
	if adm.tier == engine.TierStreamed {
		total = fp.WindowedTotal(opt.Threads, adm.res.WindowNNZ, x.NNZ())
	}
	s.admitted += total
	s.admMu.Unlock()
	adm.release = func() {
		s.admMu.Lock()
		s.admitted -= total
		s.admMu.Unlock()
	}
	return adm, nil
}

// clampThreads resolves a client's requested worker count: <1 means the
// server's own count, and no request may exceed it — every worker pre-sizes
// its accumulator, so an unbounded count is an unbounded allocation.
func clampThreads(requested, limit int) int {
	if requested < 1 || requested > limit {
		return limit
	}
	return requested
}
