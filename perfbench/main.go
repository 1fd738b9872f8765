// Command perfbench is the repository's benchmark: one workload per run,
// inputs generated from a seed, every timed output checked against a
// reference fingerprint computed by a different path, and one JSON result
// line at the end.
//
//	bash perfbench/run.sh --workload fig4-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// separate traced run records spans around calls into each module's public
// functions and reports the per-layer metrics. See README.md for what every
// metric means and which workload moves it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Seeds: DefaultSeed is the one tuning runs use; HeldOutSeed is reserved for
// confirming a claimed gain on inputs the change was not written against.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	Seed     int64
	Duration time.Duration
	Trace    bool
	Threads  int
	// WorkDir holds the run's scratch files (mapped tensors, spills, traces).
	WorkDir string
	// ServeBin is the sptc-serve binary the serve-hot workload launches.
	ServeBin string
	// CorruptRef flips one bit of every reference fingerprint, to show that
	// the output oracle fails the run.
	CorruptRef bool
}

// outcome is what a workload reports back: op counts and named metrics.
type outcome struct {
	attempted int
	failed    int
	wrong     int
	metrics   map[string]metric
	spans     *recorder
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

type workloadFunc func(cfg runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"serve-hot":  runServeHot,
	"fig4-cold":  runFig4Cold,
	"scaleout":   runScaleout,
	"chain-ccsd": runChainCCSD,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", DefaultSeed, "input seed")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workDir  = flag.String("work-dir", filepath.Join(".bench_build", "work"), "scratch directory")
		serveBin = flag.String("serve-bin", filepath.Join(".bench_build", "bin", "sptc-serve"), "sptc-serve binary")
		corrupt  = flag.Bool("corrupt-reference", false, "flip a bit of every reference fingerprint (oracle self-check)")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, names)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	dir := filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{
		Seed:       *seed,
		Duration:   time.Duration(*seconds) * time.Second,
		Trace:      *trace == 1,
		Threads:    runtime.NumCPU(),
		WorkDir:    dir,
		ServeBin:   *serveBin,
		CorruptRef: *corrupt,
	}
	prov := hostProvenance(*name, cfg)
	if !prov.Valid {
		fmt.Fprintf(os.Stderr, "perfbench: invalid host: GOMAXPROCS %d below the %d threads the run asks for\n",
			prov.GOMAXPROCS, cfg.Threads)
		return 3
	}

	declared, err := loadDeclared("BENCHMARK.json", cfg.Trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	out, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := declared.complete(out.metrics); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if out.spans != nil {
		if err := out.spans.writeFile(filepath.Join(*workDir, fmt.Sprintf("trace-%s-%d.json", *name, *seed))); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}

	res := result{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed + out.wrong,
		Metrics:   out.metrics,
	}
	printTable(res)
	provLine, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(provLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d outputs disagree with their reference\n", out.wrong)
		return 1
	}
	return 0
}

// declaredMetric is one metric entry of BENCHMARK.json.
type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaredSet is the metric list a run must report: the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one.
type declaredSet struct {
	metrics []declaredMetric
	traced  bool
}

func loadDeclared(path string, traced bool) (declaredSet, error) {
	var spec struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return declaredSet{}, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return declaredSet{}, fmt.Errorf("%s: %w", path, err)
	}
	if traced {
		return declaredSet{metrics: spec.PerLayer, traced: true}, nil
	}
	return declaredSet{metrics: spec.EndToEnd}, nil
}

// complete checks the reported metrics against the declared list. Every
// end-to-end metric must be measured by every workload. A per-layer metric
// of a layer the workload never calls reads 0, which is what its spans
// and counters sum to.
func (d declaredSet) complete(m map[string]metric) error {
	known := map[string]bool{}
	for _, dm := range d.metrics {
		known[dm.Name] = true
		got, ok := m[dm.Name]
		switch {
		case !ok && d.traced:
			m[dm.Name] = metric{Value: 0, Unit: dm.Unit}
		case !ok:
			return fmt.Errorf("end-to-end metric %s was not measured", dm.Name)
		case got.Unit != dm.Unit:
			return fmt.Errorf("metric %s measured in %s, declared in %s", dm.Name, got.Unit, dm.Unit)
		}
	}
	for n := range m {
		if !known[n] {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", n)
		}
	}
	return nil
}

// printTable prints every metric by name with its unit, for people reading
// the run; the JSON line after it is what tools read.
func printTable(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
