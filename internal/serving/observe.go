package serving

import (
	"context"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"scouts/internal/core"
	"scouts/internal/monitoring"
	"scouts/internal/telemetry"
)

// This file is the server's self-observability plane: the metric set,
// the per-endpoint instrumentation middleware, request-ID plumbing and
// the core.PredictObserver implementation. The invariants (DESIGN.md
// §11): recording a sample on the request path is atomic adds only —
// no locks, no label hashing, no allocation — and nothing exported
// through /metrics reads the wall clock, so a scrape under an injected
// clock is reproducible byte for byte.

// endpoints is the full route set of Handler(), plus the catch-all.
// Per-endpoint series are pre-registered from this list so request-time
// lookup is a prebuilt pointer, never a registry access.
var endpoints = []string{
	"/v1/health", "/v1/model", "/v1/reload", "/v1/predict", "/v1/predict:batch",
	"/metrics", "other",
}

// statusCodes are the label values of scout_http_requests_total; every
// status the serving layer can produce, with "other" as the catch-all.
var statusCodes = []int{200, 400, 404, 405, 413, 429, 500, 503}

// endpointMetrics is one endpoint's request instrumentation.
type endpointMetrics struct {
	dur *telemetry.Histogram
	// byCode is read-only after construction; map reads without a lock
	// are safe, and the fixed code set keeps label cardinality bounded.
	byCode map[int]*telemetry.Counter
	other  *telemetry.Counter
}

func (em *endpointMetrics) codeCounter(status int) *telemetry.Counter {
	if c, ok := em.byCode[status]; ok {
		return c
	}
	return em.other
}

// serverMetrics is every series the server exports, held by pointer so
// the request path records without touching the registry.
type serverMetrics struct {
	reg *telemetry.Registry

	endpoints map[string]*endpointMetrics

	shed     *telemetry.Counter
	timeouts *telemetry.Counter
	panics   *telemetry.Counter

	reloads      *telemetry.Counter
	modelVersion *telemetry.Gauge
	// loadSeconds holds the float64 bits of the last model load's
	// duration; exported through a GaugeFunc because the gauge type is
	// integral and load latency needs sub-second resolution.
	loadSeconds atomic.Uint64
	modelBytes  *telemetry.Gauge

	predByModel map[string]*telemetry.Counter
	predOther   *telemetry.Counter
	fallbacks   *telemetry.Counter

	imputedPredictions *telemetry.Counter
	imputedSlots       *telemetry.Counter
}

func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{
		reg:       reg,
		endpoints: make(map[string]*endpointMetrics, len(endpoints)),
		shed: reg.Counter("scout_http_requests_shed_total",
			"Requests shed with 429 because MaxInFlight was saturated."),
		timeouts: reg.Counter("scout_http_request_timeouts_total",
			"Requests answered 503 because they overran RequestTimeout."),
		panics: reg.Counter("scout_http_panics_recovered_total",
			"Handler panics converted to 500 responses by the recovery middleware."),
		reloads: reg.Counter("scout_model_reloads_total",
			"Successful model loads (startup load included)."),
		modelVersion: reg.Gauge("scout_model_version",
			"Version of the currently served model (0 before the first load)."),
		modelBytes: reg.Gauge("scout_model_bytes",
			"Size in bytes of the snapshot behind the served model."),
		predByModel: map[string]*telemetry.Counter{},
		fallbacks: reg.Counter("scout_prediction_fallbacks_total",
			"Predictions answered VerdictFallback (legacy routing takes over)."),
		imputedPredictions: reg.Counter("scout_imputed_predictions_total",
			"Predictions whose feature vector carried at least one imputed slot."),
		imputedSlots: reg.Counter("scout_imputed_slots_total",
			"Feature-vector slots filled with training means across all predictions."),
	}
	const reqHelp = "HTTP requests by endpoint and status code."
	const durHelp = "HTTP request latency in seconds by endpoint."
	for _, ep := range endpoints {
		em := &endpointMetrics{
			dur:    reg.Histogram("scout_http_request_duration_seconds", durHelp, nil, telemetry.L("endpoint", ep)),
			byCode: make(map[int]*telemetry.Counter, len(statusCodes)),
			other: reg.Counter("scout_http_requests_total", reqHelp,
				telemetry.L("endpoint", ep), telemetry.L("code", "other")),
		}
		for _, code := range statusCodes {
			em.byCode[code] = reg.Counter("scout_http_requests_total", reqHelp,
				telemetry.L("endpoint", ep), telemetry.L("code", strconv.Itoa(code)))
		}
		m.endpoints[ep] = em
	}
	const predHelp = "Predictions served, by answering model."
	for _, model := range []string{"rf", "cpd+", "exclude-rule", "none"} {
		m.predByModel[model] = reg.Counter("scout_predictions_total", predHelp, telemetry.L("model", model))
	}
	m.predOther = reg.Counter("scout_predictions_total", predHelp, telemetry.L("model", "other"))
	reg.GaugeFunc("scout_model_load_duration_seconds",
		"Wall time of the last model load: store read + snapshot restore (0 before the first load).",
		func() float64 { return math.Float64frombits(m.loadSeconds.Load()) })
	return m
}

// setLoadStats records one model load's observability pair: how long
// the restore took (by the server's injected clock, so tests see exact
// values) and how many bytes the snapshot was.
func (m *serverMetrics) setLoadStats(d time.Duration, bytes int) {
	m.loadSeconds.Store(math.Float64bits(d.Seconds()))
	m.modelBytes.Set(int64(bytes))
}

func (m *serverMetrics) endpoint(name string) *endpointMetrics {
	if em, ok := m.endpoints[name]; ok {
		return em
	}
	return m.endpoints["other"]
}

// registerSourceMetrics exports the data source's availability picture —
// per-dataset breaker state and lifetime trip counts — as scrape-time
// callbacks reading the live breaker at the health clock's time (the
// maximum trigger time any prediction asked about; never the wall
// clock). Sources without a health capability export nothing.
func (s *Server) registerSourceMetrics() {
	hr := monitoring.HealthReporterOf(s.source)
	if hr == nil {
		return
	}
	type tripsCounter interface{ Trips(string) int }
	tc, hasTrips := s.source.(tripsCounter)
	for _, d := range s.source.Datasets() {
		name := d.Name
		s.tel.reg.GaugeFunc("scout_breaker_state",
			"Circuit-breaker state per dataset: 0 closed, 1 half-open, 2 open.",
			func() float64 {
				t := math.Float64frombits(s.lastTime.Load())
				switch hr.DatasetHealth(name, t).Breaker {
				case "open":
					return 2
				case "half-open":
					return 1
				default:
					return 0
				}
			},
			telemetry.L("dataset", name))
		s.tel.reg.GaugeFunc("scout_dataset_available",
			"Whether the dataset currently answers queries (1) or is dark (0).",
			func() float64 {
				t := math.Float64frombits(s.lastTime.Load())
				if hr.DatasetHealth(name, t).Available {
					return 1
				}
				return 0
			},
			telemetry.L("dataset", name))
		if hasTrips {
			s.tel.reg.CounterFunc("scout_breaker_trips_total",
				"Times the dataset's circuit breaker has opened.",
				func() float64 { return float64(tc.Trips(name)) },
				telemetry.L("dataset", name))
		}
	}
}

// Metrics returns the server's metric registry (the GET /metrics
// payload); tests and embedding binaries can render or extend it.
func (s *Server) Metrics() *telemetry.Registry { return s.tel.reg }

// nextRequestID mints a per-request ID: the instance prefix (set by the
// binary; empty in tests keeps IDs short and deterministic) plus a
// process-monotonic sequence number. No randomness, no wall clock.
func (s *Server) nextRequestID() string {
	n := s.reqSeq.Add(1)
	if s.InstanceID != "" {
		return s.InstanceID + "-" + strconv.FormatUint(n, 10)
	}
	return "r" + strconv.FormatUint(n, 10)
}

// withRequestID is the outermost middleware: every request — including
// ones later shed, timed out or panicking — gets an ID, echoed in the
// X-Request-Id response header and propagated through the request
// context into the batch scorer and the access log.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := s.nextRequestID()
		w.Header().Set("X-Request-Id", rid)
		next.ServeHTTP(w, r.WithContext(telemetry.WithRequestID(r.Context(), rid)))
	})
}

// statusWriter captures the response status for the request counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// instrument wraps one endpoint's handler with its latency histogram,
// status counters and the structured access log. It is the layer the
// scoutlint obs analyzer demands on every mux registration: a handler
// that never passes through here serves invisible requests.
func (s *Server) instrument(endpoint string, next http.Handler) http.Handler {
	em := s.tel.endpoint(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.Clock()
		sw := &statusWriter{ResponseWriter: w}
		done := false
		// Observation is deferred so a panicking handler still records a
		// sample (as a 500; the recovery middleware owns the response).
		defer func() {
			elapsed := s.Clock().Sub(start)
			em.dur.ObserveDuration(elapsed)
			status := sw.code
			if status == 0 {
				status = http.StatusOK
			}
			if !done {
				status = http.StatusInternalServerError
			}
			em.codeCounter(status).Inc()
			if s.Access != nil {
				s.Access.Log("http_request",
					telemetry.F("request_id", telemetry.RequestID(r.Context())),
					telemetry.F("method", r.Method),
					telemetry.F("endpoint", endpoint),
					telemetry.F("status", status),
					telemetry.F("duration_ms", float64(elapsed)/1e6),
				)
			}
		}()
		next.ServeHTTP(sw, r)
		done = true
	})
}

// withDeadline bounds every request with RequestTimeout. It replaces
// http.TimeoutHandler — which emits its timeout body without a
// Content-Type, so Go content-sniffs our JSON error as text/plain — with
// the same semantics through writeJSON: the handler runs on its own
// goroutine against a buffered response while the request context
// carries the deadline; on overrun the client gets an immediate 503
// application/json body and the handler's context expires so in-flight
// scoring stops at the next chunk boundary.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.RequestTimeout)
		defer cancel()
		bw := &bufferedResponse{header: http.Header{}}
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			next.ServeHTTP(bw, r.WithContext(ctx))
		}()
		select {
		case rec := <-done:
			if rec != nil {
				// Re-raise on the serving goroutine so the recovery
				// middleware turns it into a 500 (http.ErrAbortHandler
				// included — withRecover re-raises that one further).
				panic(rec)
			}
			bw.copyTo(w)
		case <-ctx.Done():
			// The handler goroutine keeps running against the abandoned
			// buffer until it notices the expired context; nothing reads
			// that buffer again.
			s.tel.timeouts.Inc()
			s.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "request deadline exceeded"})
		}
	})
}

// bufferedResponse is withDeadline's parking space for the handler's
// response: headers, status and body land here and are copied to the
// real writer only if the handler beats the deadline.
type bufferedResponse struct {
	header http.Header
	body   []byte
	code   int
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.code == 0 {
		b.code = http.StatusOK
	}
	b.body = append(b.body, p...)
	return len(p), nil
}

func (b *bufferedResponse) copyTo(w http.ResponseWriter) {
	dst := w.Header()
	for k, vv := range b.header {
		dst[k] = vv
	}
	code := b.code
	if code == 0 {
		code = http.StatusOK
	}
	w.WriteHeader(code)
	_, _ = w.Write(b.body)
}

// handleNotFound answers unrouted paths with a JSON 404 — every error
// the serving layer emits is decodable JSON with the right Content-Type.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusNotFound, errorBody{Error: "no such endpoint: " + r.URL.Path})
}

// ObservePrediction implements core.PredictObserver: atomic counter
// bumps for every prediction (model mix, fallbacks, imputation), plus a
// structured log line — carrying the request ID the middleware minted —
// on the cold fallback branch. The non-fallback path allocates nothing.
func (s *Server) ObservePrediction(ctx context.Context, p *core.Prediction) {
	if c, ok := s.tel.predByModel[p.Model]; ok {
		c.Inc()
	} else {
		s.tel.predOther.Inc()
	}
	if h := p.Health; h != nil && h.ImputedSlots > 0 {
		s.tel.imputedPredictions.Inc()
		s.tel.imputedSlots.Add(int64(h.ImputedSlots))
	}
	if p.Verdict == core.VerdictFallback {
		s.tel.fallbacks.Inc()
		if s.Access != nil {
			s.Access.Log("prediction_fallback",
				telemetry.F("request_id", telemetry.RequestID(ctx)),
				telemetry.F("model", p.Model),
				telemetry.F("explanation", p.Explanation),
			)
		}
	}
}

var (
	_ core.PredictObserver = (*Server)(nil)
	_ http.Handler         = (*telemetry.Registry)(nil)
)
