package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"scouts/internal/core"
	"scouts/internal/faults"
	"scouts/internal/monitoring"
	"scouts/internal/serving"
)

// plainSource hides every optional capability of the source it wraps.
type plainSource struct{ monitoring.DataSource }

// healthOnly offers the health capability but not the aggregate one.
type healthOnly struct {
	monitoring.DataSource
	monitoring.HealthReporter
}

// The decorator must offer exactly the capabilities of what it wraps:
// otherwise StatsSourceOf and HealthReporterOf take different paths and
// the traced run measures another program.
func TestTraceSourceForwardsCapabilities(t *testing.T) {
	w, err := buildWorld(5, 4, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	tel := w.gen.Telemetry()
	breaker := faults.NewBreaker(tel, faults.BreakerParams{})
	for name, inner := range map[string]monitoring.DataSource{
		"telemetry":   tel,
		"breaker":     breaker,
		"plain":       plainSource{tel},
		"health-only": healthOnly{plainSource{tel}, breaker},
	} {
		traced := traceSource(inner, &sourceStats{}, &tracing{}, nil)
		_, innerStats := inner.(monitoring.StatsSource)
		_, tracedStats := traced.(monitoring.StatsSource)
		_, innerHealth := inner.(monitoring.HealthReporter)
		_, tracedHealth := traced.(monitoring.HealthReporter)
		if innerStats != tracedStats || innerHealth != tracedHealth {
			t.Errorf("%s: inner stats/health %v/%v, traced %v/%v", name, innerStats, innerHealth, tracedStats, tracedHealth)
		}
	}
}

// A Scout restored over the traced serving wiring answers byte for byte
// what one over the plain wiring answers, on the single and batch paths.
func TestTracedStackPredictsIdentically(t *testing.T) {
	w, err := buildWorld(3, 30, 22, 6)
	if err != nil {
		t.Fatal(err)
	}
	store := serving.NewStore()
	trainer := &serving.Trainer{Store: store, Pack: true}
	if _, _, err := trainer.TrainAndPublish(w.trainOptions(w.gen.Telemetry())); err != nil {
		t.Fatal(err)
	}
	m, _ := store.Latest()
	plain, err := w.restoreReference(m.Snapshot, w.servingSource())
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracing{}
	tr.on.Store(true)
	inner, outer := &sourceStats{}, &sourceStats{}
	traced, err := w.restoreReference(m.Snapshot, w.tracedServingSource(tr, inner, outer, func([]float64) {}))
	if err != nil {
		t.Fatal(err)
	}

	reqs := make([]core.BatchRequest, len(w.held))
	for i, in := range w.held {
		reqs[i] = batchRequest(in)
		r := predictRequest(in)
		want := mustJSON(t, plain.Predict(r.Title, r.Body, r.Components, r.Time))
		got := mustJSON(t, traced.Predict(r.Title, r.Body, r.Components, r.Time))
		if !bytes.Equal(got, want) {
			t.Fatalf("incident %s: traced %s, plain %s", in.ID, got, want)
		}
	}
	if want, got := mustJSON(t, plain.PredictBatch(reqs)), mustJSON(t, traced.PredictBatch(reqs)); !bytes.Equal(got, want) {
		t.Fatalf("batch answers differ:\ntraced %s\nplain  %s", got, want)
	}
	if inner.series.calls.Load() == 0 || outer.stats.calls.Load() == 0 {
		t.Fatalf("decorators recorded nothing: inner series %d, outer stats %d", inner.series.calls.Load(), outer.stats.calls.Load())
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
