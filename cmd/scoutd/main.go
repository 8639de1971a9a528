// Command scoutd trains a PhyNet Scout over a synthetic cloud and serves
// predictions over REST — the online half of the §6 deployment.
//
// Usage:
//
//	scoutd [-addr :8080] [-seed 7] [-days 90] [-rate 10] [-workers 0]
//	       [-max-inflight 64] [-request-timeout 10s] [-min-coverage 0.25]
//	       [-instance scoutd] [-access-log] [-store DIR]
//
// -store points at a SaveStore directory. When it already holds model
// versions, scoutd serves the newest one instead of training at boot —
// scoutpacks load through the zero-re-derivation binary path — and
// POST /v1/reload re-reads the directory, so versions published by
// another process (an offline trainer) are picked up live. When the
// directory is empty, scoutd trains once, publishes the model into it
// as a scoutpack, and serves the scout it just trained directly (no
// snapshot round trip).
//
// Endpoints:
//
//	GET  /v1/health
//	GET  /v1/model
//	GET  /metrics    Prometheus text exposition (see README "Observability")
//	POST /v1/reload
//	POST /v1/predict   {"title": ..., "body": ..., "components": [...], "time": h}
//	POST /v1/predict:batch   {"items": [<predict request>, ...]} (max 256 items)
//
// The server is configured for exposure to untrusted clients (request
// bodies are size-capped, unknown JSON fields rejected, and header and
// idle timeouts bound slow-client resource usage) and drains gracefully on
// SIGINT/SIGTERM so in-flight predictions complete before exit. Overload
// and degraded monitoring are first-class: -max-inflight sheds excess
// requests with 429 + Retry-After, -request-timeout deadline-bounds every
// handler, and -min-coverage makes predictions fall back to legacy routing
// when too few monitoring datasets are live (DESIGN.md §10).
//
// The process observes itself (DESIGN.md §11): GET /metrics exports
// per-endpoint request and latency series, prediction/fallback/imputation
// counters, model gauges and per-dataset circuit-breaker state — scoutd
// serves its monitoring through faults.NewBreaker so dataset outages trip
// visibly. -access-log streams one JSON line per request (with the
// request ID every response echoes in X-Request-Id) to stderr; -instance
// prefixes those request IDs so replicas never collide.
//
// Startup training uses the presorted-columns split kernel, and request-time
// featurization answers window statistics through the monitoring aggregate
// layer instead of copying raw points (DESIGN.md §7) — keeping /v1/predict
// latency flat as telemetry history grows.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scouts/internal/cloudsim"
	"scouts/internal/core"
	"scouts/internal/faults"
	"scouts/internal/serving"
	"scouts/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 7, "world seed")
	days := flag.Int("days", 90, "days of synthetic incident history to train on")
	rate := flag.Float64("rate", 10, "incidents per day")
	workers := flag.Int("workers", 0, "training/featurization workers (0 = GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight", 64, "max concurrently-served requests; excess sheds with 429 (0 = unbounded)")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request deadline; overruns answer 503 (0 = none)")
	retryAfterBase := flag.Duration("retry-after-base", time.Second, "base Retry-After hint on 429 sheds; grows with sustained saturation")
	minCoverage := flag.Float64("min-coverage", 0.25, "monitoring-coverage floor below which predictions fall back (0 = disabled)")
	instance := flag.String("instance", "scoutd", "instance ID prefixed to request IDs (X-Request-Id)")
	accessLog := flag.Bool("access-log", false, "write one structured JSON line per request to stderr")
	storeDir := flag.String("store", "", "model store directory: serve from it when populated, publish into it after training")
	flag.Parse()

	logger := log.New(os.Stderr, "scoutd: ", log.LstdFlags)
	opts := servingOptions{
		maxInflight: *maxInflight, requestTimeout: *reqTimeout, minCoverage: *minCoverage,
		retryAfterBase: *retryAfterBase,
		instance:       *instance, accessLog: *accessLog,
		storeDir: *storeDir,
	}
	if err := run(*addr, *seed, *days, *rate, *workers, opts, logger); err != nil {
		logger.Fatal(err)
	}
}

// servingOptions carries the robustness knobs from flags into the server.
type servingOptions struct {
	maxInflight    int
	requestTimeout time.Duration
	minCoverage    float64
	retryAfterBase time.Duration
	instance       string
	accessLog      bool
	storeDir       string
}

func run(addr string, seed int64, days int, rate float64, workers int, opts servingOptions, logger *log.Logger) error {
	logger.Printf("generating %d days of synthetic cloud history (seed %d)", days, seed)
	gen := cloudsim.New(cloudsim.Params{Seed: seed, Days: days, IncidentsPerDay: rate})
	trace := gen.Generate()
	logger.Printf("%d incidents generated", trace.Len())

	cfg, err := core.ParseConfig(core.DefaultPhyNetConfig)
	if err != nil {
		return err
	}

	// A populated -store directory replaces boot-time training: serve the
	// newest stored version (scoutpacks load with zero re-derivation).
	store := serving.NewStore()
	if opts.storeDir != "" {
		if loaded, rep, err := serving.LoadStore(opts.storeDir); err == nil {
			store = loaded
			if len(rep.Quarantined) > 0 {
				logger.Printf("store: quarantined %d damaged model file(s)", len(rep.Quarantined))
			}
			logger.Printf("store: %d eager + %d lazy version(s) from %s", len(rep.Loaded), len(rep.Lazy), opts.storeDir)
		} else if !os.IsNotExist(err) {
			logger.Printf("store: %v (continuing with boot-time training)", err)
		}
	}

	var scout *core.Scout
	var version int
	if store.Versions() == 0 {
		trainer := &serving.Trainer{Store: store}
		start := time.Now()
		var err error
		scout, version, err = trainer.TrainAndPublish(core.TrainOptions{
			Config:    cfg,
			Topology:  gen.Topology(),
			Source:    gen.Telemetry(),
			Incidents: trace.Incidents,
			Seed:      seed,
			Workers:   workers,
		})
		if err != nil {
			return fmt.Errorf("training: %w", err)
		}
		logger.Printf("trained %s scout v%d in %v (top features: %v)",
			scout.Team(), version, time.Since(start).Round(time.Millisecond), scout.TopFeatures(3))
		if opts.storeDir != "" {
			if err := serving.SaveStore(store, opts.storeDir); err != nil {
				return fmt.Errorf("publishing to %s: %w", opts.storeDir, err)
			}
			logger.Printf("published scoutpack v%d to %s", version, opts.storeDir)
		}
	}

	// Serve through a circuit breaker even though training used the raw
	// source: request-time featurization must degrade in bounded time when
	// a dataset goes dark, and the breaker's per-dataset state is part of
	// the /metrics surface (scout_breaker_state, scout_breaker_trips_total).
	source := faults.NewBreaker(gen.Telemetry(), faults.BreakerParams{})
	srv := serving.NewServer(gen.Topology(), source, store, logger)
	srv.MaxInFlight = opts.maxInflight
	srv.RequestTimeout = opts.requestTimeout
	srv.RetryAfterBase = opts.retryAfterBase
	srv.Degradation = core.DegradationPolicy{MinCoverage: opts.minCoverage}
	srv.InstanceID = opts.instance
	if opts.storeDir != "" {
		dir := opts.storeDir
		srv.ReloadStore = func() (*serving.Store, error) {
			st, rep, err := serving.LoadStore(dir)
			if err != nil {
				return nil, err
			}
			if len(rep.Quarantined) > 0 {
				logger.Printf("store: quarantined %d damaged model file(s) on reload", len(rep.Quarantined))
			}
			return st, nil
		}
	}
	if opts.accessLog {
		al := telemetry.NewLogger(os.Stderr, telemetry.F("component", "scoutd"), telemetry.F("instance", opts.instance))
		al.Now = time.Now
		srv.Access = al
	}
	if scout != nil {
		// The scout we just trained already has its flat inference views —
		// installing it directly skips the snapshot restore (and its flat
		// re-derivation) a Reload would pay.
		srv.Install(scout, version)
		logger.Printf("serving: installed freshly-trained scout v%d", version)
	} else if err := srv.Reload(); err != nil {
		return err
	}

	// A bare http.ListenAndServe has no header timeout (one slow-writing
	// client per connection holds a goroutine forever — slowloris) and no
	// way to drain on shutdown. Configure the server explicitly and tie
	// its lifetime to SIGINT/SIGTERM.
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          logger,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("serving on %s", addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Printf("signal received; draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("drained; bye")
	return nil
}
