package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scouts/internal/monitoring"
)

// tracing switches every decorator and handler wrapper of a traced run
// between recording and plain pass-through, so one stack serves both
// the untraced and the traced half of a run.
type tracing struct{ on atomic.Bool }

func (t *tracing) enabled() bool { return t != nil && t.on.Load() }

// callStats accumulates one kind of data-source call.
type callStats struct {
	calls  atomic.Int64
	ns     atomic.Int64
	points atomic.Int64
}

func (c *callStats) add(d time.Duration, points int) {
	c.calls.Add(1)
	c.ns.Add(int64(d))
	c.points.Add(int64(points))
}

// sourceStats is what a traced data source saw, by method.
type sourceStats struct {
	series, stats, events, eventsWindow callStats
	// onCall, when set, sees the interval of every traced call.
	onCall func(start, end time.Time)
}

func (s *sourceStats) record(c *callStats, start time.Time, points int) {
	end := time.Now()
	c.add(end.Sub(start), points)
	if s.onCall != nil {
		s.onCall(start, end)
	}
}

// totalNS is the time spent inside the decorated source.
func (s *sourceStats) totalNS() int64 {
	return s.series.ns.Load() + s.stats.ns.Load() + s.events.ns.Load() + s.eventsWindow.ns.Load()
}

type sourceSnapshot struct {
	seriesCalls, statsCalls, eventCalls, points int64
	seriesNS, statsNS, eventNS, totalNS         int64
}

func (s *sourceStats) snapshot() sourceSnapshot {
	return sourceSnapshot{
		seriesCalls: s.series.calls.Load(), statsCalls: s.stats.calls.Load(),
		eventCalls: s.events.calls.Load() + s.eventsWindow.calls.Load(),
		points:     s.series.points.Load() + s.stats.points.Load(),
		seriesNS:   s.series.ns.Load(), statsNS: s.stats.ns.Load(),
		eventNS: s.events.ns.Load() + s.eventsWindow.ns.Load(),
		totalNS: s.totalNS(),
	}
}

// plus adds sign*b to a field by field.
func (a sourceSnapshot) plus(b sourceSnapshot, sign int64) sourceSnapshot {
	return sourceSnapshot{
		seriesCalls: a.seriesCalls + sign*b.seriesCalls, statsCalls: a.statsCalls + sign*b.statsCalls,
		eventCalls: a.eventCalls + sign*b.eventCalls, points: a.points + sign*b.points,
		seriesNS: a.seriesNS + sign*b.seriesNS, statsNS: a.statsNS + sign*b.statsNS,
		eventNS: a.eventNS + sign*b.eventNS, totalNS: a.totalNS + sign*b.totalNS,
	}
}

// tracedSource times the DataSource methods of inner. It is never used
// bare: traceSource pairs it with exactly the optional capabilities
// (monitoring.StatsSource, monitoring.HealthReporter) inner offers, so
// the capability probes of featurization and of the breaker see the
// same shapes with and without tracing.
type tracedSource struct {
	inner monitoring.DataSource
	st    *sourceStats
	tr    *tracing
	// onSeries, when set, sees every traced SeriesWindow result.
	onSeries func([]float64)
}

func (s *tracedSource) Datasets() []monitoring.Descriptor { return s.inner.Datasets() }

func (s *tracedSource) SeriesWindow(dataset, component string, from, to float64) []float64 {
	if !s.tr.enabled() {
		return s.inner.SeriesWindow(dataset, component, from, to)
	}
	start := time.Now()
	v := s.inner.SeriesWindow(dataset, component, from, to)
	s.st.record(&s.st.series, start, len(v))
	if s.onSeries != nil {
		s.onSeries(v)
	}
	return v
}

func (s *tracedSource) EventsWindow(dataset, component string, from, to float64) []monitoring.EventRecord {
	if !s.tr.enabled() {
		return s.inner.EventsWindow(dataset, component, from, to)
	}
	start := time.Now()
	v := s.inner.EventsWindow(dataset, component, from, to)
	s.st.record(&s.st.eventsWindow, start, 0)
	return v
}

// tracedStats times the aggregate queries of a StatsSource.
type tracedStats struct {
	inner monitoring.StatsSource
	st    *sourceStats
	tr    *tracing
}

func (s tracedStats) WindowStats(dataset, component string, from, to float64) (monitoring.Stats, bool) {
	if !s.tr.enabled() {
		return s.inner.WindowStats(dataset, component, from, to)
	}
	start := time.Now()
	v, ok := s.inner.WindowStats(dataset, component, from, to)
	s.st.record(&s.st.stats, start, v.Count)
	return v, ok
}

func (s tracedStats) EventCount(dataset, component string, from, to float64) int {
	if !s.tr.enabled() {
		return s.inner.EventCount(dataset, component, from, to)
	}
	start := time.Now()
	n := s.inner.EventCount(dataset, component, from, to)
	s.st.record(&s.st.events, start, 0)
	return n
}

// The capability combinations traceSource can return. Health reports
// are forwarded untimed.
type (
	sourceWithStats struct {
		*tracedSource
		tracedStats
	}
	sourceWithHealth struct {
		*tracedSource
		monitoring.HealthReporter
	}
	sourceWithStatsHealth struct {
		*tracedSource
		tracedStats
		monitoring.HealthReporter
	}
)

// traceSource decorates inner, recording into st while tr is on.
func traceSource(inner monitoring.DataSource, st *sourceStats, tr *tracing, onSeries func([]float64)) monitoring.DataSource {
	base := &tracedSource{inner: inner, st: st, tr: tr, onSeries: onSeries}
	stats, hasStats := inner.(monitoring.StatsSource)
	health, hasHealth := inner.(monitoring.HealthReporter)
	ts := tracedStats{inner: stats, st: st, tr: tr}
	switch {
	case hasStats && hasHealth:
		return sourceWithStatsHealth{base, ts, health}
	case hasStats:
		return sourceWithStats{base, ts}
	case hasHealth:
		return sourceWithHealth{base, health}
	default:
		return base
	}
}

// spanHeader carries the gateway span ID on upstream attempts, so a
// replica span can name the client request that caused it.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}

// requestSpan is one client request through the gateway: its own span
// and the span of each replica that served an attempt for it.
type requestSpan struct {
	gateway  time.Duration
	answerer string
	replica  map[string]time.Duration
}

// spans records handler spans keyed by gateway span ID.
type spans struct {
	tr       *tracing
	next     atomic.Uint64
	attempts atomic.Int64
	mu       sync.Mutex
	byID     map[uint64]*requestSpan
}

func newSpans(tr *tracing) *spans { return &spans{tr: tr, byID: map[uint64]*requestSpan{}} }

// gateway wraps the gateway handler: one span per client request, its
// ID handed to upstream attempts through the request context.
func (sp *spans) gateway(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !sp.tr.enabled() {
			next.ServeHTTP(w, r)
			return
		}
		id := sp.next.Add(1)
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		d := time.Since(start)
		sp.mu.Lock()
		rs := sp.span(id)
		rs.gateway = d
		rs.answerer = w.Header().Get("X-Scout-Replica")
		sp.mu.Unlock()
	})
}

// span returns the record for id, creating it. Callers hold sp.mu.
func (sp *spans) span(id uint64) *requestSpan {
	rs := sp.byID[id]
	if rs == nil {
		rs = &requestSpan{replica: map[string]time.Duration{}}
		sp.byID[id] = rs
	}
	return rs
}

// replica wraps a replica handler, naming the span it serves.
func (sp *spans) replica(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !sp.tr.enabled() || r.URL.Path == "/v1/health" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(start)
		id, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			return
		}
		sp.mu.Lock()
		sp.span(id).replica[name] = d
		sp.mu.Unlock()
	})
}

// transport counts the gateway's upstream attempts and stamps each with
// the client request's span ID.
type spanTransport struct {
	sp   *spans
	base http.RoundTripper
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id, ok := r.Context().Value(spanKey{}).(uint64)
	if !ok || !t.sp.tr.enabled() {
		return t.base.RoundTrip(r)
	}
	t.sp.attempts.Add(1)
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	return t.base.RoundTrip(r)
}

// gatewayHop is the mean gateway self time per client request: its span
// minus the span of the replica whose answer it relayed.
func (sp *spans) gatewayHop() (hop time.Duration, requests int) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	var sum time.Duration
	for _, rs := range sp.byID {
		d, ok := rs.replica[rs.answerer]
		if rs.gateway == 0 || !ok {
			continue
		}
		sum += rs.gateway - d
		requests++
	}
	if requests == 0 {
		return 0, 0
	}
	return sum / time.Duration(requests), requests
}

func (sp *spans) clientRequests() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	n := 0
	for _, rs := range sp.byID {
		if rs.gateway != 0 {
			n++
		}
	}
	return n
}
