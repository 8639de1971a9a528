package core

import (
	"bytes"
	"crypto/sha256"
	"sync"
	"testing"

	"scouts/internal/cloudsim"
	"scouts/internal/faults"
	"scouts/internal/incident"
	"scouts/internal/ml/forest"
	"scouts/internal/monitoring"
	"scouts/internal/topology"
)

// fuzzWorld is the small fixed cloudsim world FuzzScoutpack restores
// against. Its seed scouts are trained on all of its incidents with
// 3-tree, depth-4 forests, so their feature layout matches its
// monitoring registry.
type fuzzWorld struct {
	topo      *topology.Topology
	clean     monitoring.DataSource
	blackout  monitoring.DataSource // every PhyNet dataset dark, forever
	all       []*incident.Incident
	incidents []*incident.Incident // the few every accepted blob predicts
}

var (
	onceFuzzWorld sync.Once
	fuzzWorldVal  *fuzzWorld
	fuzzWorldErr  error
)

func getFuzzWorld(t testing.TB) *fuzzWorld {
	t.Helper()
	onceFuzzWorld.Do(func() {
		gen := cloudsim.New(cloudsim.Params{
			Seed: 19, Days: 20, IncidentsPerDay: 6,
			Topology: topology.Params{DCs: 1, ClustersPerDC: 2},
		})
		log := gen.Generate()
		cfg, err := ParseConfig(DefaultPhyNetConfig)
		if err != nil {
			fuzzWorldErr = err
			return
		}
		names := NewFeatureBuilder(cfg, gen.Topology(), gen.Telemetry()).DatasetNames()
		fuzzWorldVal = &fuzzWorld{
			topo:      gen.Topology(),
			clean:     gen.Telemetry(),
			blackout:  faults.NewChaos(gen.Telemetry(), blackoutAll(names), 1),
			all:       log.Incidents,
			incidents: log.Incidents[:6],
		}
	})
	if fuzzWorldErr != nil {
		t.Fatal(fuzzWorldErr)
	}
	return fuzzWorldVal
}

// fuzzSeedSnapshot trains a scout on fuzzWorld and returns its
// snapshot: a seed Restore accepts whatever the current feature layout.
func fuzzSeedSnapshot(f *testing.F) []byte {
	w := getFuzzWorld(f)
	cfg, err := ParseConfig(DefaultPhyNetConfig)
	if err != nil {
		f.Fatal(err)
	}
	tiny := forest.Params{NumTrees: 3, MaxDepth: 4, Seed: 5}
	s, err := Train(TrainOptions{
		Config:         cfg,
		Topology:       w.topo,
		Source:         w.clean,
		Incidents:      w.all,
		Forest:         tiny,
		Selector:       SelectorParams{ImportantWords: 4, Forest: tiny},
		MaxCPDExamples: 20,
		Seed:           3,
		Workers:        1,
	})
	if err != nil {
		f.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	return snap
}

// sealScoutpack returns a copy of blob with the SCPK checksum field set
// to the sha256 of everything after it, so a mutated body passes the
// checksum wall and reaches the section parser.
func sealScoutpack(blob []byte) []byte {
	const sumAt = 8
	b := bytes.Clone(blob)
	if len(b) >= sumAt+sha256.Size {
		sum := sha256.Sum256(b[sumAt+sha256.Size:])
		copy(b[sumAt:], sum[:])
	}
	return b
}

// FuzzScoutpack feeds arbitrary scoutpack bodies, resealed with a fresh
// checksum, to InspectPack and Restore. Neither may panic. A blob Restore
// accepts must be safe to serve: it predicts a few fixed incidents
// against live monitoring and under a full blackout (so imputation reads
// the train means), and snapshotting it is a fixed point under a second
// restore/snapshot.
//
// The seed corpus in testdata/fuzz/FuzzScoutpack holds the snapshot of
// a scout trained on fuzzWorld, the same snapshot with a single train
// mean (which panicked imputation before Restore checked the length),
// one without its optional CPD+ and selector sections, a truncation, and
// a non-pack blob. A freshly trained snapshot is added too, so the
// corpus keeps an accepted seed when the feature layout changes.
func FuzzScoutpack(f *testing.F) {
	f.Add(fuzzSeedSnapshot(f))
	f.Fuzz(func(t *testing.T, body []byte) {
		blob := sealScoutpack(body)
		_, _ = InspectPack(blob)
		w := getFuzzWorld(t)
		s, err := Restore(blob, w.topo, w.clean)
		if err != nil {
			return
		}
		dark, err := Restore(blob, w.topo, w.blackout)
		if err != nil {
			t.Fatalf("accepted against live monitoring but not under blackout: %v", err)
		}
		for _, in := range w.incidents {
			s.PredictIncident(in)
			dark.PredictIncident(in)
		}

		snap, err := s.Snapshot()
		if err != nil {
			t.Fatalf("accepted scoutpack does not re-snapshot: %v", err)
		}
		back, err := Restore(snap, w.topo, w.clean)
		if err != nil {
			t.Fatalf("re-snapshotted scoutpack does not restore: %v", err)
		}
		again, err := back.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, again) {
			t.Fatal("snapshot is not a fixed point under restore")
		}
	})
}
