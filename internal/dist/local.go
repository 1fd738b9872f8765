package dist

import (
	"context"

	"sparta/internal/coo"
	"sparta/internal/core"
	"sparta/internal/engine"
	"sparta/internal/obs"
)

// LocalConfig sizes one in-process shard executor.
type LocalConfig struct {
	// CacheEntries / CacheBytes size the shard's private plan cache
	// (engine.Config semantics: 0 = default, negative entries = disabled).
	CacheEntries int
	CacheBytes   uint64
	// MaxInflight bounds concurrent contractions on this shard (per-shard
	// backpressure; 0 = unbounded). Blocked callers respect ctx.
	MaxInflight int
	// WindowNNZ, when >0, runs the shard through the windowed streaming
	// driver (core.ContractStream) with this window size — the oracle
	// suite's streamed-tier case. Shards whose X cannot be streamed (no
	// free mode) fall back to the in-memory driver; both produce bitwise
	// identical output.
	WindowNNZ int
	// Metrics, when non-nil, receives the shard engine's cache counters.
	Metrics *obs.Registry
}

// Local is an in-process shard: a private plan-cache engine plus a counting
// semaphore for backpressure. Safe for concurrent Contract calls.
type Local struct {
	name      string
	eng       *engine.Engine
	sem       chan struct{}
	windowNNZ int
}

// NewLocal builds an in-process shard executor.
func NewLocal(name string, cfg LocalConfig) *Local {
	l := &Local{
		name: name,
		eng: engine.New(engine.Config{
			CacheEntries: cfg.CacheEntries,
			CacheBytes:   cfg.CacheBytes,
			Metrics:      cfg.Metrics,
		}),
		windowNNZ: cfg.WindowNNZ,
	}
	if cfg.MaxInflight > 0 {
		l.sem = make(chan struct{}, cfg.MaxInflight)
	}
	return l
}

// Name implements Executor.
func (l *Local) Name() string { return l.name }

// Engine exposes the shard's plan cache for stats scraping.
func (l *Local) Engine() *engine.Engine { return l.eng }

// Contract implements Executor: prepare (or reuse) the HtY through the
// shard's plan cache, then contract the shard's X against it.
func (l *Local) Contract(ctx context.Context, x, y *coo.Tensor, job Job) (*coo.Tensor, *core.Report, error) {
	if l.sem != nil {
		select {
		case l.sem <- struct{}{}:
			defer func() { <-l.sem }()
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	opt := job.Options
	pr, hit, err := l.eng.PrepareCtx(ctx, y, job.CmodesY, opt)
	if err != nil {
		return nil, nil, err
	}
	if l.windowNNZ > 0 {
		if xs, serr := core.NewTensorStream(x, job.CmodesX, l.windowNNZ, opt.Threads, opt.InPlace); serr == nil {
			return core.ContractStream(ctx, xs, pr, core.StreamOptions{Options: opt})
		}
		// Unstreamable shard (e.g. fully contracted X): in-memory fallback,
		// bitwise identical by the stream driver's own invariant.
	}
	return engine.ContractPrepared(ctx, pr, hit, x, job.CmodesX, opt)
}

// Close implements Executor (nothing to release in-process).
func (l *Local) Close() error { return nil }
