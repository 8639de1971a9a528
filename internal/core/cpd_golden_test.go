package core

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/ml/cpd"
)

// cpdGoldenPath holds CPD+'s answers on the fixed-seed world below, as
// produced by the sort-per-split energy kernel that the sort-once kernel
// replaced. The fixture is data, not code: it never changes unless CPD+'s
// answers are meant to change.
const cpdGoldenPath = "testdata/cpd_golden.json"

// cpdGoldenWorld and cpdGoldenDetector fix the world and the detector the
// fixture was generated from. The detector is the one Train uses by
// default (29 permutations).
var (
	cpdGoldenWorld    = cloudsim.Params{Seed: 11, Days: 30, IncidentsPerDay: 8}
	cpdGoldenDetector = cpd.Params{Permutations: 29}
)

type cpdGoldenBroad struct {
	ID string `json:"id"`
	// Vector is PlusParams.Featurize's output as math.Float64bits.
	Vector []uint64 `json:"vector"`
}

type cpdGoldenNarrow struct {
	ID string `json:"id"`
	// HasChange lists HasChange for every series of the incident's
	// CPDInput, datasets in sorted order, components in input order.
	HasChange []bool `json:"has_change"`
}

type cpdGoldenFixture struct {
	World    cloudsim.Params   `json:"world"`
	Detector cpd.Params        `json:"detector"`
	Datasets []string          `json:"datasets"`
	Broad    []cpdGoldenBroad  `json:"broad"`
	Narrow   []cpdGoldenNarrow `json:"narrow"`
}

// computeCPDGolden runs CPD+ featurization (broad incidents) and the
// narrow rule's per-series HasChange over every extractable incident of
// the golden world.
func computeCPDGolden(t *testing.T) cpdGoldenFixture {
	t.Helper()
	gen := cloudsim.New(cpdGoldenWorld)
	log := gen.Generate()
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		t.Fatal(err)
	}
	fb := NewFeatureBuilder(cfg, gen.Topology(), gen.Telemetry())
	params := cpd.PlusParams{Datasets: fb.DatasetNames(), Detector: cpdGoldenDetector}
	fx := cpdGoldenFixture{World: cpdGoldenWorld, Detector: cpdGoldenDetector, Datasets: params.Datasets}
	for _, in := range log.Incidents {
		ex := fb.Extract(in.Title, in.Body, in.Components)
		if ex.Excluded || ex.Empty {
			continue
		}
		input := fb.CPDInput(ex, in.CreatedAt)
		if ex.Broad {
			vec := params.Featurize(input)
			bits := make([]uint64, len(vec))
			for i, v := range vec {
				bits[i] = math.Float64bits(v)
			}
			fx.Broad = append(fx.Broad, cpdGoldenBroad{ID: in.ID, Vector: bits})
			continue
		}
		rec := cpdGoldenNarrow{ID: in.ID, HasChange: []bool{}}
		for _, ds := range params.Datasets {
			for _, series := range input.Series[ds] {
				rec.HasChange = append(rec.HasChange, cpd.HasChange(series, cpdGoldenDetector))
			}
		}
		fx.Narrow = append(fx.Narrow, rec)
	}
	return fx
}

// TestCPDGoldenFixture pins CPD+'s answers on a fixed-seed world bit for
// bit: every broad feature vector (average change points per series) and
// every narrow HasChange must equal the committed fixture.
func TestCPDGoldenFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("world generation and CPD+ over every incident")
	}
	raw, err := os.ReadFile(cpdGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want cpdGoldenFixture
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	// The fixture must exercise both paths and contain detections, or
	// bit equality would prove little.
	var cps, hits int
	for _, b := range want.Broad {
		for i := 0; i < len(b.Vector); i += 2 {
			if math.Float64frombits(b.Vector[i]) > 0 {
				cps++
			}
		}
	}
	for _, n := range want.Narrow {
		for _, h := range n.HasChange {
			if h {
				hits++
			}
		}
	}
	if cps == 0 || hits == 0 {
		t.Fatalf("fixture is vacuous: %d broad change-point rates, %d narrow HasChange hits", cps, hits)
	}

	got := computeCPDGolden(t)
	if !reflect.DeepEqual(got.World, want.World) || !reflect.DeepEqual(got.Detector, want.Detector) ||
		!reflect.DeepEqual(got.Datasets, want.Datasets) {
		t.Fatalf("fixture header differs: got %+v %+v %v", got.World, got.Detector, got.Datasets)
	}
	if len(got.Broad) != len(want.Broad) || len(got.Narrow) != len(want.Narrow) {
		t.Fatalf("got %d broad / %d narrow incidents, fixture has %d / %d",
			len(got.Broad), len(got.Narrow), len(want.Broad), len(want.Narrow))
	}
	for i := range want.Broad {
		if !reflect.DeepEqual(got.Broad[i], want.Broad[i]) {
			t.Errorf("broad %s: vector bits %x, fixture %x", want.Broad[i].ID, got.Broad[i].Vector, want.Broad[i].Vector)
		}
	}
	for i := range want.Narrow {
		if !reflect.DeepEqual(got.Narrow[i], want.Narrow[i]) {
			t.Errorf("narrow %s: HasChange %v, fixture %v", want.Narrow[i].ID, got.Narrow[i].HasChange, want.Narrow[i].HasChange)
		}
	}
}
