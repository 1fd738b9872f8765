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
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sparta"
	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/einsum"
	"sparta/internal/engine"
	"sparta/internal/gen"
	"sparta/internal/obs"
)

// openLoopRPS is the fixed open-loop arrival rate of serve-hot: a little
// under half the closed-loop capacity measured on a 2-core host at the
// commit that introduced the benchmark while that host ran slow (about 650
// requests/s; it reaches about twice that when it runs fast), so the
// server stays well below saturation either way. It is a constant so that
// later changes are compared at the same offered load.
const openLoopRPS = 270

// Serve-hot shape: small contractions (a few ms each), so HTTP, JSON,
// fingerprinting and admission are a visible share of every request.
var (
	serveXDims = []uint64{64, 32, 48}
	serveYDims = []uint64{48, 40}
)

const (
	serveNNZX    = 1000
	serveNNZY    = 300
	serveSpec    = "abc,cd->abd"
	servePoolX   = 8
	serveBudget  = 8e9  // DRAM admission budget in bytes: admits every request on the dram tier
	openShare    = 0.75 // share of an untraced run spent open-loop; the rest measures capacity
	httpShare    = 0.4  // share of a traced run spent on HTTP; the rest replays in-process
	lateGrace    = 5 * time.Second
	healthPoll   = 200 * time.Microsecond
	bootDeadline = 20 * time.Second
)

// Op kinds of the serve-hot mix.
const (
	opHot    = iota // contract a pooled X against the hot Y (plan-cache hit)
	opFreshX        // upload a fresh X, then contract it against the hot Y
	opFreshY        // upload a fresh Y, then contract a pooled X against it (miss)
)

// serveOp is one scheduled op with the fingerprint its reply must carry.
type serveOp struct {
	kind int
	x    int    // pooled X index (also the base of a fresh X)
	body []byte // SPTN upload body of a fresh tensor
	want engine.Fingerprint
}

// serveInputs holds the seeded tensors and per-op expectations.
type serveInputs struct {
	pool  []*coo.Tensor
	hot   *coo.Tensor
	zRef  []*coo.Tensor // pooled X i against the hot Y, by the one-shot path
	fresh int           // fresh uploads generated so far (multiplier index)
	deck  []int         // op kinds left in the current mix block
	rng   *rand.Rand
	cfg   runConfig
}

// multiplier returns the k-th fresh-upload scale: a signed power of two, so
// scaling an input scales the output exactly, and distinct within any 1600
// consecutive uploads. A fresh Y seen again is 80 fresh Ys later, so it has
// left the server's 64-entry plan cache and misses like a new one.
func multiplier(k int) float64 {
	e := (k>>1)%800 - 400
	if e == 0 {
		e = 400
	}
	m := math.Ldexp(1, e)
	if k&1 == 1 {
		m = -m
	}
	return m
}

func scaled(t *coo.Tensor, m float64) *coo.Tensor {
	c := t.Clone()
	c.Scale(m)
	return c
}

func newServeInputs(cfg runConfig) (*serveInputs, error) {
	in := &serveInputs{
		hot: gen.Random(serveYDims, serveNNZY, cfg.Seed),
		rng: rand.New(rand.NewSource(cfg.Seed)),
		cfg: cfg,
	}
	for i := 0; i < servePoolX; i++ {
		x := gen.Random(serveXDims, serveNNZX, cfg.Seed+1+int64(i))
		// Reference: the in-process one-shot path.
		z, _, err := sparta.Einsum(serveSpec, x, in.hot, sparta.Options{Algorithm: sparta.AlgSparta, Threads: cfg.Threads})
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		in.pool = append(in.pool, x)
		in.zRef = append(in.zRef, z)
	}
	return in, nil
}

// mixBlock is one block of the serve-hot mix: 85% hot, 10% fresh X, 5%
// fresh Y. Ops are dealt from seeded shuffles of it, so every block of 20
// consecutive ops holds the mix exactly and a window's tail does not move
// with how many uploads a random draw happened to put in it.
var mixBlock = func() []int {
	b := make([]int, 20)
	b[0], b[1], b[2] = opFreshY, opFreshX, opFreshX
	return b
}()

// nextKind deals the next op kind of the mix.
func (in *serveInputs) nextKind() int {
	if len(in.deck) == 0 {
		in.deck = append(in.deck, mixBlock...)
		in.rng.Shuffle(len(in.deck), func(i, j int) { in.deck[i], in.deck[j] = in.deck[j], in.deck[i] })
	}
	k := in.deck[0]
	in.deck = in.deck[1:]
	return k
}

// schedule draws the next n ops of the mix.
func (in *serveInputs) schedule(n int) ([]serveOp, error) {
	ops := make([]serveOp, n)
	for i := range ops {
		op := serveOp{x: in.rng.Intn(servePoolX), kind: in.nextKind()}
		m := 1.0
		if op.kind != opHot {
			m = multiplier(in.fresh)
			in.fresh++
			src := in.hot
			if op.kind == opFreshX {
				src = in.pool[op.x]
			}
			var buf bytes.Buffer
			if err := scaled(src, m).WriteBin(&buf); err != nil {
				return nil, err
			}
			op.body = buf.Bytes()
		}
		op.want = reference(scaled(in.zRef[op.x], m), in.cfg.CorruptRef)
		ops[i] = op
	}
	return ops, nil
}

// server is one sptc-serve subprocess.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches sptc-serve with admission on and waits until it
// answers /healthz.
func startServer(cfg runConfig) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(cfg.ServeBin, "-addr", addr, "-threads", strconv.Itoa(cfg.Threads),
		"-max-inflight", strconv.Itoa(cfg.Threads), "-dram-budget", strconv.FormatUint(serveBudget, 10))
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	// The server must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", cfg.ServeBin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(bootDeadline)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("sptc-serve exited during boot: %v", err)
		case <-time.After(healthPoll):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("sptc-serve not healthy after %v", bootDeadline)
		}
	}
}

// stop terminates the server and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

// conn is one client connection; it owns its upload names.
type conn struct {
	id     int
	base   string
	client *http.Client
}

func newConn(id int, base string) *conn {
	return &conn{id: id, base: base, client: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

type contractReply struct {
	Fingerprint   string `json:"fingerprint"`
	HtYReused     bool   `json:"hty_reused"`
	ExecutionTier string `json:"execution_tier"`
}

// opResult is what a client learns from one op.
type opResult struct {
	wrong  bool // 200 but the fingerprint disagrees
	reused bool
	put    time.Duration // upload wall (fresh ops)
}

func (c *conn) put(name string, body []byte) error {
	req, err := http.NewRequest(http.MethodPut, c.base+"/tensors/"+name, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT %s: status %d", name, resp.StatusCode)
	}
	return nil
}

// do runs one op; a non-nil error means the op failed (refused, shed or
// broken), never a wrong output.
func (c *conn) do(op serveOp) (opResult, error) {
	var res opResult
	x, y := fmt.Sprintf("px%d", op.x), "hy"
	switch op.kind {
	case opFreshX:
		x = fmt.Sprintf("c%d-fx", c.id)
	case opFreshY:
		y = fmt.Sprintf("c%d-fy", c.id)
	}
	if op.kind != opHot {
		name := x
		if op.kind == opFreshY {
			name = y
		}
		t0 := time.Now()
		if err := c.put(name, op.body); err != nil {
			return res, err
		}
		res.put = time.Since(t0)
	}
	body, _ := json.Marshal(map[string]string{"x": x, "y": y, "spec": serveSpec})
	resp, err := c.client.Post(c.base+"/contract", "application/json", bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("contract: status %d", resp.StatusCode)
	}
	var rep contractReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return res, fmt.Errorf("contract reply: %w", err)
	}
	if rep.ExecutionTier != engine.TierDRAM.String() {
		return res, fmt.Errorf("contract ran on tier %q", rep.ExecutionTier)
	}
	res.reused = rep.HtYReused
	res.wrong = rep.Fingerprint != op.want.String()
	return res, nil
}

// bootAndLoad is one set-up: start the server, upload the pooled X tensors
// and the hot Y, and run the first (warm-up) op.
func bootAndLoad(cfg runConfig, in *serveInputs, first serveOp) (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(cfg)
	if err != nil {
		return nil, 0, err
	}
	c := newConn(0, s.base)
	defer c.close()
	upload := func(name string, t *coo.Tensor) error {
		var buf bytes.Buffer
		if err := t.WriteBin(&buf); err != nil {
			return err
		}
		return c.put(name, buf.Bytes())
	}
	err = upload("hy", in.hot)
	for i := 0; err == nil && i < len(in.pool); i++ {
		err = upload(fmt.Sprintf("px%d", i), in.pool[i])
	}
	if err == nil {
		// Set-up outputs are not checked; the timed ops are.
		_, err = c.do(first)
	}
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

// openLoopStats is what the open-loop generator measured, per op in
// schedule order.
type openLoopStats struct {
	latency []float64 // ms from due time to reply; failed ops count as the whole window
	lag     []float64 // ms from due time to send
	puts    []float64 // ms per upload
	hits    int       // replies with hty_reused
	ok      int
	failed  int
	wrong   int
}

// openWindows is how many windows the open-loop phase is offered in, each
// followed by a closed-loop burst: about 250 requests (under a second) each
// in a 25 s run. op_p50_ms and tail_ms are the lower quartiles of the
// windows' medians and tailPercentile latencies, and ops_per_s the upper
// quartile of the bursts' rates: host stalls on a shared machine only ever
// add latency and take away throughput. With ten windows a noisy stretch
// on a 2-core host spoiled seven or more of them in one run in six, and
// tail_ms spread 0.18 of its median over those runs; with twenty it spread
// 0.04 over runs interleaved with them.
const openWindows = 20

// tailPercentile is serve-hot's tail: p95, about 12 requests beyond it per
// window. The p99 spread 0.30 of its median over ten runs on a 2-core host
// with CPU steal, wider than any bound the benchmark may set.
const tailPercentile = 0.95

// burstOps is how many ops a closed-loop burst draws: more than a burst
// completes on a 2-core host. A burst that runs out ends early; its rate is
// still its completed ops over its own wall.
const burstOps = 1000

// openLoop offers ops at a fixed rate on at most threads connections. Each
// op is timed from its due time, so a stall also delays the ops queued
// behind it; ops not sent within lateGrace of the phase end are failed.
func openLoop(base string, ops []serveOp, rate float64, conns int) openLoopStats {
	type job struct {
		i   int
		due time.Time
	}
	// Buffered for every op: the dispatcher never blocks, so arrivals keep
	// their schedule however far the server falls behind.
	queue := make(chan job, len(ops))
	start := time.Now().Add(10 * time.Millisecond)
	phase := time.Duration(float64(len(ops)) / rate * float64(time.Second))
	hardStop := start.Add(phase + lateGrace)
	var mu sync.Mutex
	st := openLoopStats{latency: make([]float64, len(ops)), lag: make([]float64, len(ops))}
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			defer c.close()
			for j := range queue {
				sent := time.Now()
				var res opResult
				err := errors.New("not sent before the run ended")
				if sent.Before(hardStop) {
					res, err = c.do(ops[j.i])
				}
				done := time.Now()
				mu.Lock()
				st.lag[j.i] = ms(sent.Sub(j.due))
				switch {
				case err != nil:
					st.failed++
					st.latency[j.i] = ms(phase)
				case res.wrong:
					st.wrong++
					st.latency[j.i] = ms(phase)
				default:
					st.ok++
					st.latency[j.i] = ms(done.Sub(j.due))
				}
				if res.reused {
					st.hits++
				}
				if res.put > 0 {
					st.puts = append(st.puts, ms(res.put))
				}
				mu.Unlock()
			}
		}(newConn(w, base))
	}
	for i := range ops {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		queue <- job{i: i, due: due}
	}
	close(queue)
	wg.Wait()
	return st
}

// closedLoop runs conns clients that each wait for their reply before
// sending the next op, for d, and returns the completed ops per second.
// The clients take ops in order and stop at the end of ops.
func closedLoop(base string, ops []serveOp, d time.Duration, conns int) (rate float64, attempted, failed, wrong int) {
	var next, okN, failN, wrongN atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			defer c.close()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				res, err := c.do(ops[i])
				switch {
				case err != nil:
					failN.Add(1)
				case res.wrong:
					wrongN.Add(1)
				default:
					okN.Add(1)
				}
			}
		}(newConn(w, base))
	}
	wg.Wait()
	rate = float64(okN.Load()) / time.Since(start).Seconds()
	attempted = int(min(next.Load(), int64(len(ops))))
	return rate, attempted, int(failN.Load()), int(wrongN.Load())
}

func runServeHot(cfg runConfig) (*outcome, error) {
	if _, err := os.Stat(cfg.ServeBin); err != nil {
		return nil, fmt.Errorf("sptc-serve binary: %w", err)
	}
	in, err := newServeInputs(cfg)
	if err != nil {
		return nil, err
	}
	warm, err := in.schedule(1)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	if cfg.Trace {
		return serveTraced(cfg, in, warm[0], o)
	}

	var s *server
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		if s, d, err = bootAndLoad(cfg, in, warm[0]); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	// The run is split into openWindows segments. Each offers one open-loop
	// window, then runs a closed-loop burst, so latency and capacity sample
	// the same stretches of host time. Each segment resets the server's
	// resident-set high-water mark and reads it at the end; peak_rss_mb is
	// the median, so one late GC cycle moves one segment, not the run.
	pid := strconv.Itoa(s.cmd.Process.Pid)
	openDur := time.Duration(float64(cfg.Duration) * openShare)
	perWindow := int(openLoopRPS * openDur.Seconds() / openWindows)
	burst := (cfg.Duration - openDur) / openWindows
	var p50s, tails, rates, peaks []float64
	for w := 0; w < openWindows; w++ {
		ops, err := in.schedule(perWindow)
		if err != nil {
			return nil, err
		}
		closed, err := in.schedule(burstOps)
		if err != nil {
			return nil, err
		}
		if err := clearPeakRSS(pid); err != nil {
			return nil, fmt.Errorf("resetting server peak RSS: %w", err)
		}
		st := openLoop(s.base, ops, openLoopRPS, cfg.Threads)
		p50s = append(p50s, median(st.latency))
		tails = append(tails, quantile(st.latency, tailPercentile))
		rate, att, fail, wrong := closedLoop(s.base, closed, burst, cfg.Threads)
		rates = append(rates, rate)
		o.attempted += len(ops) + att
		o.failed += st.failed + fail
		o.wrong += st.wrong + wrong
		rss, err := peakRSSMB(pid)
		if err != nil {
			return nil, fmt.Errorf("reading server peak RSS: %w", err)
		}
		peaks = append(peaks, rss)
	}

	o.set("op_p50_ms", "ms", quantile(p50s, 0.25))
	o.set("tail_ms", "ms", quantile(tails, 0.25))
	o.set("ops_per_s", "1/s", quantile(rates, 0.75))
	o.set("setup_s", "s", median(setups))
	o.set("peak_rss_mb", "MB", median(peaks))
	if beyond := float64(perWindow) * (1 - tailPercentile); beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d requests per open-loop window; the tail has fewer than 10 beyond it\n", perWindow)
	}
	return o, nil
}

// serveTraced measures serve-hot layer by layer: an HTTP open-loop phase
// gives the client view (latency, upload wall, generator lag, plan-cache
// hits), then the same mix is replayed in-process through the server's
// pipeline functions with a span around each call.
func serveTraced(cfg runConfig, in *serveInputs, first serveOp, o *outcome) (*outcome, error) {
	s, _, err := bootAndLoad(cfg, in, first)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	httpDur := time.Duration(float64(cfg.Duration) * httpShare)
	open, err := in.schedule(int(openLoopRPS * httpDur.Seconds()))
	if err != nil {
		s.stop()
		return nil, err
	}
	st := openLoop(s.base, open, openLoopRPS, cfg.Threads)
	s.stop()
	o.attempted += len(open)
	o.failed += st.failed
	o.wrong += st.wrong
	o.set("loadgen.lag_ms", "ms", quantile(st.lag, 0.99))
	o.set("serve.upload_ms", "ms", median(st.puts))
	o.set("engine.hit_ratio", "ratio", float64(st.hits)/float64(max(1, st.ok+st.wrong)))

	// In-process replay: a fresh engine sized and instrumented like the
	// server's, the same admission budget, the same warm-up op.
	rp := &replayer{
		reg:     obs.NewRegistry(),
		adm:     engine.Admission{DRAMBudget: serveBudget},
		threads: cfg.Threads,
		tensors: map[string]*coo.Tensor{"hy": in.hot},
	}
	rp.eng = engine.New(engine.Config{Metrics: rp.reg})
	for i, x := range in.pool {
		rp.tensors[fmt.Sprintf("px%d", i)] = x
	}
	if _, _, err := rp.op(nil, first); err != nil {
		return nil, err
	}
	replayDur := cfg.Duration - httpDur
	ops, err := in.schedule(int(openLoopRPS * replayDur.Seconds()))
	if err != nil {
		return nil, err
	}
	// Untraced and traced replays alternate op by op, as in the library
	// workloads; the untraced ones are the base of trace.overhead_ratio.
	rec := newRecorder()
	o.spans = rec
	var base []float64
	var reps [][]*core.Report
	var rt runtimeDelta
	for i, op := range ops {
		if i%2 == 0 {
			before := sampleRuntime()
			t0 := time.Now()
			ok, _, err := rp.op(nil, op)
			base = append(base, ms(time.Since(t0)))
			rt.add(before)
			if err != nil {
				return nil, err
			}
			o.attempted++
			if !ok {
				o.wrong++
			}
			continue
		}
		ok, rep, err := rp.op(rec, op)
		if err != nil {
			return nil, err
		}
		reps = append(reps, []*core.Report{rep})
		o.attempted++
		if !ok {
			o.wrong++
		}
	}
	rt.set(o)
	spans := rec.snapshot()
	opsStats := perOp(spans, "op")
	traceSummary(o, opsStats, median(base))
	setSpanMetrics(o, spans, opsStats)
	setReportMetrics(o, reps, opsStats)
	walls := make([]float64, len(opsStats))
	for i, st := range opsStats {
		walls[i] = ms(st.Wall)
	}
	o.set("serve.residual_ms", "ms", median(st.latency)-median(walls))

	// Thread scaling on the hot op, timed over batches (one op is ~1 ms).
	hot := ops[0]
	for _, op := range ops {
		if op.kind == opHot {
			hot = op
			break
		}
	}
	err = setThreadSpeedup(o, func(threads int) (time.Duration, error) {
		prev := rp.threads
		if threads > 0 {
			rp.threads = threads
		}
		defer func() { rp.threads = prev }()
		t0 := time.Now()
		for i := 0; i < 50; i++ {
			if _, _, err := rp.op(nil, hot); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	return o, err
}

// replayer runs serve-hot ops in-process through the functions the server's
// handlers call, in the handlers' order.
type replayer struct {
	eng     *engine.Engine
	reg     *obs.Registry
	adm     engine.Admission
	threads int
	tensors map[string]*coo.Tensor
}

type replayInfo struct {
	Name        string   `json:"name"`
	Order       int      `json:"order"`
	Dims        []uint64 `json:"dims"`
	NNZ         int      `json:"nnz"`
	Fingerprint string   `json:"fingerprint"`
}

type replayReply struct {
	Spec          string   `json:"spec"`
	OutDims       []uint64 `json:"out_dims"`
	NNZ           int      `json:"nnz"`
	Fingerprint   string   `json:"fingerprint"`
	HtYReused     bool     `json:"hty_reused"`
	CacheHits     uint64   `json:"cache_hits"`
	CacheMisses   uint64   `json:"cache_misses"`
	WallNS        int64    `json:"wall_ns"`
	ExecutionTier string   `json:"execution_tier"`
}

// op replays one serve-hot op: the upload (ReadBin, fingerprint, info
// encode) when the op has one, then the contract handler's pipeline: spec
// parse, plan-cache prepare, footprint estimate and admission plan,
// Engine.Einsum (lookup plus prepared contraction), output fingerprint and
// reply encode.
func (rp *replayer) op(rec *recorder, op serveOp) (bool, *core.Report, error) {
	root := rec.newOp("op")
	opt := core.Options{Algorithm: core.AlgSparta, Threads: rp.threads, Metrics: rp.reg}
	xName, yName := fmt.Sprintf("px%d", op.x), "hy"
	if op.kind != opHot {
		name := "c0-fx"
		if op.kind == opFreshY {
			name = "c0-fy"
			yName = name
		} else {
			xName = name
		}
		sp := rec.start(root, "serve.upload")
		t, err := coo.ReadBin(bytes.NewReader(op.body))
		if err == nil {
			rp.tensors[name] = t
			_, err = json.Marshal(replayInfo{Name: name, Order: t.Order(), Dims: t.Dims, NNZ: t.NNZ(),
				Fingerprint: engine.FingerprintTensor(t, rp.threads).String()})
		}
		rec.end(sp)
		if err != nil {
			return false, nil, err
		}
	}
	x, y := rp.tensors[xName], rp.tensors[yName]

	sp := rec.start(root, "einsum.parse")
	ein, err := einsum.Parse(serveSpec)
	rec.end(sp)
	if err != nil {
		return false, nil, err
	}
	t0 := time.Now()
	pr, hit, err := rp.eng.PrepareCtx(context.Background(), y, ein.CmodesY, opt)
	name := "engine.prepare_miss"
	if hit {
		name = "engine.lookup"
	}
	rec.record(root, name, t0, time.Now())
	if err != nil {
		return false, nil, err
	}
	sp = rec.start(root, "engine.admit")
	fp := engine.EstimateFootprint(x.NNZ(), pr)
	tier, _ := rp.adm.Plan(fp, rp.threads, x.NNZ(), 0)
	rec.end(sp)
	if tier != engine.TierDRAM {
		return false, nil, fmt.Errorf("replay planned tier %v", tier)
	}
	start := time.Now()
	z, rep, err := tracedEngineContract(rec, root, rp.eng, ein, x, y, opt)
	if err != nil {
		return false, nil, err
	}
	if err := tracedPermute(rec, root, ein, z, rp.threads); err != nil {
		return false, nil, err
	}
	sp = rec.start(root, "engine.fingerprint_z")
	fz := engine.FingerprintTensor(z, rp.threads)
	rec.end(sp)
	sp = rec.start(root, "serve.encode")
	stats := rp.eng.Stats()
	_, err = json.Marshal(replayReply{Spec: serveSpec, OutDims: z.Dims, NNZ: z.NNZ(), Fingerprint: fz.String(),
		HtYReused: rep.HtYReused, CacheHits: stats.Hits, CacheMisses: stats.Misses,
		WallNS: time.Since(start).Nanoseconds(), ExecutionTier: tier.String()})
	rec.end(sp)
	rec.end(root)
	return fz == op.want, rep, err
}
