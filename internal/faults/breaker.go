package faults

import (
	"sync"

	"scouts/internal/monitoring"
)

// BreakerParams tune the per-dataset circuit breakers.
type BreakerParams struct {
	// Trip is how many consecutive failed series windows (empty or too
	// stale) open the breaker; any successful window resets the streak.
	// Callers query a dataset only for components it covers, as
	// featurization does: an uncovered read is always empty and would
	// trip a healthy dataset. Default 32.
	Trip int
	// Cooldown is how long (model hours) an open breaker short-circuits
	// before allowing probe traffic. Default 2.
	Cooldown float64
	// StaleAfter, when positive, counts a window as failed if the inner
	// source reports more than this much staleness (model hours) for the
	// dataset — lagging data trips the breaker like missing data does.
	StaleAfter float64
}

func (p BreakerParams) withDefaults() BreakerParams {
	if p.Trip <= 0 {
		p.Trip = 32
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 2
	}
	return p
}

// Breaker wraps a monitoring.DataSource with a per-dataset circuit
// breaker: consecutive empty (or too-stale) series windows open the
// dataset's breaker, an open breaker answers empty windows without
// touching the inner source, and after a cooldown probe queries test
// whether the dataset recovered. Breaker implements
// monitoring.DataSource, monitoring.StatsSource and
// monitoring.HealthReporter — featurization sees an open breaker as an
// unavailable dataset and mean-imputes its features.
//
// Only time-series queries feed the state machine: most event datasets
// are legitimately silent for hours (background rates are a handful of
// events per week), so an empty event window carries no outage signal.
// Event queries are still short-circuited while the breaker is open.
type Breaker struct {
	inner  monitoring.DataSource
	stats  monitoring.StatsSource
	health monitoring.HealthReporter // nil when inner has no health capability
	p      BreakerParams

	mu sync.Mutex
	// gates holds each dataset's breaker, on model hours: time comes from
	// query windows, never from the wall clock, so breaker behavior
	// replays deterministically for a fixed query sequence.
	gates map[string]*machine[float64]
}

// NewBreaker installs circuit breakers over every dataset of inner.
func NewBreaker(inner monitoring.DataSource, p BreakerParams) *Breaker {
	return &Breaker{
		inner:  inner,
		stats:  monitoring.StatsSourceOf(inner),
		health: monitoring.HealthReporterOf(inner),
		p:      p.withDefaults(),
		gates:  map[string]*machine[float64]{},
	}
}

// Datasets implements monitoring.DataSource (registry passthrough).
func (b *Breaker) Datasets() []monitoring.Descriptor { return b.inner.Datasets() }

// gateOf returns the dataset's breaker, creating a closed one on first
// use. Callers hold b.mu.
func (b *Breaker) gateOf(dataset string) *machine[float64] {
	g := b.gates[dataset]
	if g == nil {
		g = newMachine(b.p.Trip, b.p.Cooldown)
		b.gates[dataset] = g
	}
	return g
}

// begin decides whether an observed query (one whose outcome record will
// feed back) at time t may reach the inner source; probe marks the
// half-open trial holding the dataset's single probe slot. Every
// begin(pass=true) caller invokes record after its inner query returns.
func (b *Breaker) begin(dataset string, t float64) (pass, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gateOf(dataset).allow(t)
}

// beginPassive decides whether an unobserved query (events; their silence
// carries no outage signal, so no record follows) may pass. It never
// takes the probe slot.
func (b *Breaker) beginPassive(dataset string, t float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gateOf(dataset).allowPassive(t)
}

// record feeds a series-window outcome into the dataset's breaker.
func (b *Breaker) record(dataset string, t float64, ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gateOf(dataset).record(t, ok, probe)
}

// tooStale reports whether the inner source admits to unacceptable lag.
func (b *Breaker) tooStale(dataset string, t float64) bool {
	if b.p.StaleAfter <= 0 || b.health == nil {
		return false
	}
	return b.health.DatasetHealth(dataset, t).Staleness > b.p.StaleAfter
}

// SeriesWindow implements monitoring.DataSource, gated and observed.
func (b *Breaker) SeriesWindow(dataset, component string, from, to float64) []float64 {
	pass, probe := b.begin(dataset, to)
	if !pass {
		return nil
	}
	vals := b.inner.SeriesWindow(dataset, component, from, to)
	ok := len(vals) > 0 && !b.tooStale(dataset, to)
	b.record(dataset, to, ok, probe)
	if !ok {
		return nil
	}
	return vals
}

// WindowStats implements monitoring.StatsSource, gated and observed.
func (b *Breaker) WindowStats(dataset, component string, from, to float64) (monitoring.Stats, bool) {
	pass, probe := b.begin(dataset, to)
	if !pass {
		return monitoring.Stats{}, false
	}
	st, ok := b.stats.WindowStats(dataset, component, from, to)
	ok = ok && !b.tooStale(dataset, to)
	b.record(dataset, to, ok, probe)
	if !ok {
		return monitoring.Stats{}, false
	}
	return st, true
}

// EventsWindow implements monitoring.DataSource: gated (an open breaker
// answers nothing) but never observed — event silence is not failure.
func (b *Breaker) EventsWindow(dataset, component string, from, to float64) []monitoring.EventRecord {
	if !b.beginPassive(dataset, to) {
		return nil
	}
	return b.inner.EventsWindow(dataset, component, from, to)
}

// EventCount implements monitoring.StatsSource, gated like EventsWindow.
func (b *Breaker) EventCount(dataset, component string, from, to float64) int {
	if !b.beginPassive(dataset, to) {
		return 0
	}
	return b.stats.EventCount(dataset, component, from, to)
}

// stateAt reads a dataset's effective state at time t without advancing
// its breaker: an open breaker past its cooldown reports half-open.
func (b *Breaker) stateAt(dataset string, t float64) (State, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	g := b.gates[dataset]
	if g == nil {
		return StateClosed, 0
	}
	return g.stateAt(t), g.trips
}

// DatasetHealth implements monitoring.HealthReporter: the inner source's
// report (when it has one) overlaid with the breaker's verdict.
func (b *Breaker) DatasetHealth(dataset string, t float64) monitoring.DatasetHealth {
	h := monitoring.DatasetHealth{Dataset: dataset, Available: true}
	if b.health != nil {
		h = b.health.DatasetHealth(dataset, t)
	}
	state, _ := b.stateAt(dataset, t)
	h.Breaker = string(state)
	if state == StateOpen {
		h.Available = false
	}
	return h
}

// HealthSnapshot implements monitoring.HealthReporter.
func (b *Breaker) HealthSnapshot(t float64) []monitoring.DatasetHealth {
	ds := b.inner.Datasets()
	out := make([]monitoring.DatasetHealth, len(ds))
	for i, d := range ds {
		out[i] = b.DatasetHealth(d.Name, t)
	}
	return out
}

// Trips returns how many times the dataset's breaker has opened.
func (b *Breaker) Trips(dataset string) int {
	_, trips := b.stateAt(dataset, 0)
	return trips
}

// Interface conformance checks.
var (
	_ monitoring.DataSource     = (*Breaker)(nil)
	_ monitoring.StatsSource    = (*Breaker)(nil)
	_ monitoring.HealthReporter = (*Breaker)(nil)
)
