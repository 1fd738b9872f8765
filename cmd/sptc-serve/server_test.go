package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sparta/internal/core"
	"sparta/internal/einsum"
	"sparta/internal/engine"
	"sparta/internal/gen"
)

func testServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(cfg)
	s.loadDemo()
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postContract(t *testing.T, url string, req contractRequest) (*http.Response, contractReply, errorReply) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/contract", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /contract: %v", err)
	}
	defer resp.Body.Close()
	var ok contractReply
	var bad errorReply
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading reply: %v", err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &ok); err != nil {
			t.Fatalf("decoding reply %q: %v", buf.String(), err)
		}
	} else if err := json.Unmarshal(buf.Bytes(), &bad); err != nil {
		t.Fatalf("decoding error reply %q: %v", buf.String(), err)
	}
	return resp, ok, bad
}

// TestContractWarmCold is the serving core: the first contraction builds
// the HtY, the second (same Y) reuses it, and both produce the identical
// output tensor.
func TestContractWarmCold(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	req := contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"}

	resp, cold, _ := postContract(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold request: status %d", resp.StatusCode)
	}
	if cold.HtYReused {
		t.Error("cold request claims hty_reused")
	}
	if cold.NNZ == 0 || cold.Fingerprint == "" {
		t.Fatalf("degenerate cold reply: %+v", cold)
	}

	resp, warm, _ := postContract(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request: status %d", resp.StatusCode)
	}
	if !warm.HtYReused {
		t.Error("warm request did not reuse the prepared HtY")
	}
	if warm.Fingerprint != cold.Fingerprint || warm.NNZ != cold.NNZ {
		t.Errorf("warm output differs: cold %s/%d, warm %s/%d",
			cold.Fingerprint, cold.NNZ, warm.Fingerprint, warm.NNZ)
	}
	if warm.CacheHits == 0 {
		t.Error("warm request left cache_hits at 0")
	}
}

// TestConcurrentRequests hammers one warm route from many goroutines; all
// must succeed with the same fingerprint.
func TestConcurrentRequests(t *testing.T) {
	_, ts := testServer(t, serverConfig{MaxInflight: 4, QueueWait: 30 * time.Second})
	req := contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"}
	resp, first, _ := postContract(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming request: status %d", resp.StatusCode)
	}

	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, rep, bad := postContract(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, bad.Error)
				return
			}
			if rep.Fingerprint != first.Fingerprint {
				errs <- fmt.Errorf("fingerprint %s != %s", rep.Fingerprint, first.Fingerprint)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestShedTinyBudget: with a DRAM budget far below any footprint, Sparta
// requests are shed with 503, and the shed is counted.
func TestShedTinyBudget(t *testing.T) {
	s, ts := testServer(t, serverConfig{DRAMBudget: 1024})
	resp, _, bad := postContract(t, ts.URL, contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503 shed, got %d", resp.StatusCode)
	}
	if !strings.Contains(bad.Error, "DRAM budget") {
		t.Errorf("shed reply does not explain itself: %q", bad.Error)
	}
	if n := s.reg.Counter("sptc_serve_requests_total", "", "route", "contract", "outcome", "shed_memory").Value(); n == 0 {
		t.Error("shed_memory counter not incremented")
	}
}

// TestAdmissionHtYReused: with admission on, the gate's plan-cache lookup
// is the request's only one, so the cold request reports the HtY build and
// the warm one the reuse.
func TestAdmissionHtYReused(t *testing.T) {
	_, ts := testServer(t, serverConfig{DRAMBudget: 1 << 30})
	req := contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"}
	for i, want := range []bool{false, true} {
		resp, rep, bad := postContract(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, bad.Error)
		}
		if rep.ExecutionTier != "dram" {
			t.Errorf("request %d: execution_tier = %q, want dram", i, rep.ExecutionTier)
		}
		if rep.HtYReused != want {
			t.Errorf("request %d: hty_reused = %v, want %v", i, rep.HtYReused, want)
		}
	}
}

// TestClientThreadsClamped: a client's thread count cannot exceed the
// server's own. Each worker pre-sizes its accumulator, so an unclamped
// threads=4096 on a tiny contraction allocated about 220 MB.
func TestClientThreadsClamped(t *testing.T) {
	_, ts := testServer(t, serverConfig{Threads: 2})
	req := contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde", Threads: 4096}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, _, bad := postContract(t, ts.URL, req)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, bad.Error)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 64<<20 {
		t.Errorf("threads=4096 request allocated %d MB, want under 64 MB", d>>20)
	}
}

// streamedBudget picks a DRAM budget between the prepared table's size and
// the full footprint of the demo contraction, so admission lands on the
// streamed tier: HtY fits, the unwindowed working set does not.
func streamedBudget(t *testing.T, s *server, spec string) uint64 {
	t.Helper()
	ein, err := einsum.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Algorithm: core.AlgSparta, Threads: s.threads}
	pr, _, err := s.eng.Prepare(s.tensors["demoB"], ein.CmodesY, opt)
	if err != nil {
		t.Fatal(err)
	}
	fp := engine.EstimateFootprint(s.tensors["demoA"].NNZ(), pr)
	return fp.HtY + (fp.Total(s.threads)-fp.HtY)/8
}

// TestStreamedTier: a budget that holds the prepared table but not the full
// working set degrades to the windowed out-of-core driver instead of
// shedding — 200, tagged "streamed", and bit-identical to the in-memory
// result.
func TestStreamedTier(t *testing.T) {
	_, ts0 := testServer(t, serverConfig{})
	for _, spec := range []string{"abc,cde->abde", "abc,cde->deab"} {
		req := contractRequest{X: "demoA", Y: "demoB", Spec: spec}
		resp, base, bad := postContract(t, ts0.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: baseline status %d (%s)", spec, resp.StatusCode, bad.Error)
		}
		if base.ExecutionTier != "dram" {
			t.Errorf("%s: unbudgeted request ran tier %q, want dram", spec, base.ExecutionTier)
		}

		probe := newServer(serverConfig{})
		probe.loadDemo()
		s, ts := testServer(t, serverConfig{DRAMBudget: streamedBudget(t, probe, spec)})
		resp, got, bad := postContract(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: streamed tier shed instead of degrading: status %d (%s)",
				spec, resp.StatusCode, bad.Error)
		}
		if got.ExecutionTier != "streamed" {
			t.Errorf("%s: execution_tier = %q, want streamed", spec, got.ExecutionTier)
		}
		if got.Fingerprint != base.Fingerprint || got.NNZ != base.NNZ {
			t.Errorf("%s: streamed output differs: dram %s/%d, streamed %s/%d",
				spec, base.Fingerprint, base.NNZ, got.Fingerprint, got.NNZ)
		}
		if got.Windows < 1 {
			t.Errorf("%s: streamed reply reports %d windows", spec, got.Windows)
		}
		if n := s.reg.Counter("sptc_serve_tier_total", "", "tier", "streamed").Value(); n == 0 {
			t.Error("streamed tier counter not incremented")
		}
	}
}

// TestShedInflight: with the only slot occupied and no queue wait, a
// request is shed immediately.
func TestShedInflight(t *testing.T) {
	s, ts := testServer(t, serverConfig{MaxInflight: 1, QueueWait: -1})
	s.inflight <- struct{}{} // occupy the only slot
	defer func() { <-s.inflight }()
	resp, _, bad := postContract(t, ts.URL, contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503 shed, got %d (%s)", resp.StatusCode, bad.Error)
	}
	if n := s.reg.Counter("sptc_serve_requests_total", "", "route", "contract", "outcome", "shed_inflight").Value(); n == 0 {
		t.Error("shed_inflight counter not incremented")
	}
}

// TestTensorUploadRoundTrip uploads a .tns body and contracts against it.
func TestTensorUploadRoundTrip(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	y := gen.Random([]uint64{50, 12, 9}, 500, 7)
	var buf bytes.Buffer
	if err := y.WriteTNS(&buf); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/tensors/up", &buf)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var info tensorInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.NNZ != y.NNZ() {
		t.Fatalf("upload: status %d, info %+v", resp.StatusCode, info)
	}
	cresp, rep, bad := postContract(t, ts.URL, contractRequest{X: "demoA", Y: "up", Spec: "abc,cde->abde"})
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("contract vs uploaded: status %d (%s)", cresp.StatusCode, bad.Error)
	}
	if rep.NNZ == 0 {
		t.Error("contraction against uploaded tensor produced nothing")
	}
}

// TestBadRequests drives the 400 paths.
func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	cases := []contractRequest{
		{X: "nope", Y: "demoB", Spec: "abc,cde->abde"},
		{X: "demoA", Y: "nope", Spec: "abc,cde->abde"},
		{X: "demoA", Y: "demoB", Spec: "abc,cde"},              // no arrow
		{X: "demoA", Y: "demoB", Spec: "ab,cde->abde"},         // rank mismatch
		{X: "demoA", Y: "demoB", Spec: "abc,cde->abde", Algorithm: "nope"},
		{X: "demoA", Y: "demoB", Spec: "abc,cde->abde", Kernel: "nope"},
	}
	for _, c := range cases {
		resp, _, _ := postContract(t, ts.URL, c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: want 400, got %d", c, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/contract", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated JSON: want 400, got %d", resp.StatusCode)
	}
}

// TestMetricsExposition checks the serving metrics appear on /metrics.
func TestMetricsExposition(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	postContract(t, ts.URL, contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"})
	postContract(t, ts.URL, contractRequest{X: "demoA", Y: "demoB", Spec: "abc,cde->abde"})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		`sptc_serve_requests_total{outcome="ok",route="contract"}`,
		`sptc_engine_cache_total{outcome="hit"}`,
		"sptc_serve_inflight",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0", 0, true},
		{"512", 512, true},
		{"64K", 64_000, true},
		{"1.5M", 1_500_000, true},
		{"2Gi", 2 << 30, true},
		{"4Ki", 4096, true},
		{"", 0, false},
		{"x", 0, false},
		{"-5", 0, false},
	}
	for _, c := range cases {
		got, err := parseBytes(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}
