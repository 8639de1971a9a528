package core

import (
	"math"
	"reflect"
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/faults"
)

// TestFeaturizeThroughBreakerNoFalseTrips featurizes a healthy world
// serially through a hair-trigger per-dataset breaker (two consecutive
// empty series windows trip it). Featurization reads each dataset only
// for the component types it covers, so a healthy dataset never answers
// empty and no breaker may trip: the feature vectors and CPD+ inputs
// must equal the raw source's bit for bit. Reading uncovered pairs —
// every one of which answers empty — trips the series datasets over and
// over and imputes their features away.
func TestFeaturizeThroughBreakerNoFalseTrips(t *testing.T) {
	gen := cloudsim.New(cloudsim.Params{Seed: 1, Days: 30, IncidentsPerDay: 6})
	log := gen.Generate()
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	tel := gen.Telemetry()
	br := faults.NewBreaker(tel, faults.BreakerParams{Trip: 2})
	raw := NewFeatureBuilder(cfg, gen.Topology(), tel)
	gated := NewFeatureBuilder(cfg, gen.Topology(), br)

	featurized, differ, cpdDiffer := 0, 0, 0
	for _, in := range log.Incidents {
		ex := raw.Extract(in.Title, in.Body, in.Components)
		if ex.Excluded || ex.Empty {
			continue
		}
		featurized++
		want, got := raw.Featurize(ex, in.CreatedAt), gated.Featurize(ex, in.CreatedAt)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				differ++
				if differ == 1 {
					t.Errorf("incident %s: feature %q = %v through the breaker, %v raw",
						in.ID, raw.FeatureNames()[i], got[i], want[i])
				}
				break
			}
		}
		if !reflect.DeepEqual(raw.CPDInput(ex, in.CreatedAt), gated.CPDInput(ex, in.CreatedAt)) {
			cpdDiffer++
		}
	}
	if featurized == 0 {
		t.Fatal("no incident was featurized")
	}
	if differ+cpdDiffer > 0 {
		t.Errorf("through the breaker %d of %d feature vectors and %d CPD+ inputs differ",
			differ, featurized, cpdDiffer)
	}
	for _, name := range raw.DatasetNames() {
		if n := br.Trips(name); n != 0 {
			t.Errorf("healthy dataset %s tripped %d time(s)", name, n)
		}
	}
}
