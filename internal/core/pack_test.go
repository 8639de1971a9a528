package core

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestScoutpackRoundTrip is the container-level equivalence oracle: a
// Scout restored from its scoutpack answers every held-out incident
// exactly as the live trained Scout does — same verdicts, bit-identical
// confidences, the same explanation text and data-health report.
func TestScoutpackRoundTrip(t *testing.T) {
	f := getFixture(t)
	pack, err := f.scout.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fromPack, err := Restore(pack, f.gen.Topology(), f.gen.Telemetry())
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range f.test {
		pl := f.scout.PredictIncident(in)
		pp := fromPack.PredictIncident(in)
		if pl.Verdict != pp.Verdict || pl.Responsible != pp.Responsible {
			t.Fatalf("incident %d: pack verdict %v/%v != live %v/%v", i, pp.Verdict, pp.Responsible, pl.Verdict, pl.Responsible)
		}
		if math.Float64bits(pl.Confidence) != math.Float64bits(pp.Confidence) {
			t.Fatalf("incident %d: pack confidence %v != live %v", i, pp.Confidence, pl.Confidence)
		}
		if pl.Explanation != pp.Explanation {
			t.Fatalf("incident %d: pack explanation %q != live %q", i, pp.Explanation, pl.Explanation)
		}
		if !reflect.DeepEqual(pl.Health, pp.Health) {
			t.Fatalf("incident %d: pack data health %+v != live %+v", i, pp.Health, pl.Health)
		}
	}
}

// TestScoutpackRepackIdempotent pins that a pack-restored Scout
// snapshots like a trained one: its snapshot reproduces the original
// bytes, and restoring a non-scoutpack blob fails with ErrNotScoutpack.
func TestScoutpackRepackIdempotent(t *testing.T) {
	f := getFixture(t)
	pack, err := f.scout.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(pack, f.gen.Topology(), f.gen.Telemetry())
	if err != nil {
		t.Fatal(err)
	}
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pack, again) {
		t.Fatal("snapshotting a pack-restored scout changed the bytes")
	}
	if _, err := Restore([]byte(`{"config":""}`), f.gen.Topology(), f.gen.Telemetry()); !errors.Is(err, ErrNotScoutpack) {
		t.Fatalf("restoring a JSON blob: err = %v, want ErrNotScoutpack", err)
	}
}

// TestRestoreRejectsTrainMeansMismatch pins the imputation guard: a
// checksum-valid scoutpack whose META carries fewer train means than the
// routing forest has features must fail Restore, not panic the first
// prediction that imputes a slot past the end.
func TestRestoreRejectsTrainMeansMismatch(t *testing.T) {
	f := getFixture(t)
	cpdParams, cpdRF := f.scout.cpdPlus.Parts()
	sel := f.scout.selector.(*Selector)
	meta := packMetaDTO{
		ConfigSource:      f.scout.cfg.Source,
		TrainMeans:        f.scout.trainMeans[:1],
		Detector:          f.scout.detector,
		CPDParams:         cpdParams,
		SelectorWords:     sel.words.Names(),
		SelectorThreshold: sel.threshold,
	}
	pack, err := assemblePack(meta, f.scout.rf, cpdRF, sel.rf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(pack, f.gen.Topology(), f.gen.Telemetry()); err == nil {
		t.Fatal("scoutpack with 1 train mean restored against a full routing forest")
	}
}

// TestScoutpackRejectsCorruption flips and truncates bytes across the
// blob and demands errors: the checksum wall catches payload damage, the
// header checks catch structural damage.
func TestScoutpackRejectsCorruption(t *testing.T) {
	f := getFixture(t)
	pack, err := f.scout.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Bit flips at a spread of offsets, including header and deep payload.
	for _, off := range []int{0, 5, 9, 44, 100, len(pack) / 2, len(pack) - 1} {
		blob := append([]byte(nil), pack...)
		blob[off] ^= 0x40
		if _, err := Restore(blob, f.gen.Topology(), f.gen.Telemetry()); err == nil {
			t.Errorf("bit flip at %d restored without error", off)
		}
		if _, err := InspectPack(blob); err == nil {
			t.Errorf("bit flip at %d inspected without error", off)
		}
	}
	// Truncations: torn writes at every growth stage.
	for cut := 0; cut < len(pack); cut += 512 {
		if _, err := InspectPack(pack[:cut]); err == nil {
			t.Errorf("truncation at %d inspected without error", cut)
		}
	}
	// A non-pack blob must answer ErrNotScoutpack.
	if _, err := parseScoutpack([]byte("not a pack at all")); !errors.Is(err, ErrNotScoutpack) {
		t.Fatalf("want ErrNotScoutpack, got %v", err)
	}
}

// TestInspectPack checks the operator summary against the live scout.
func TestInspectPack(t *testing.T) {
	f := getFixture(t)
	pack, err := f.scout.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	info, err := InspectPack(pack)
	if err != nil {
		t.Fatal(err)
	}
	if info.Bytes != len(pack) || info.Version != scoutpackVersion {
		t.Fatalf("inspect header wrong: %+v", info)
	}
	if info.Trees != f.scout.rf.NumTrees() || info.Nodes != f.scout.rf.NumNodes() {
		t.Fatalf("inspect forest shape wrong: %+v", info)
	}
	if info.Features != len(f.scout.rf.Features()) || info.TrainMeans != len(f.scout.trainMeans) {
		t.Fatalf("inspect layout wrong: %+v", info)
	}
}
