package forest

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestParallelTrainingBitIdentical is the determinism contract of the
// worker pool: because per-tree seeds are pre-drawn from the root stream in
// tree order and importances are merged in tree order, the serialized
// forest must be byte-for-byte identical at any worker count.
func TestParallelTrainingBitIdentical(t *testing.T) {
	d := xorDataset(400, 0.1, rand.New(rand.NewSource(21)))
	snapshot := func(workers int) []byte {
		t.Helper()
		f, err := Train(d, Params{NumTrees: 24, MaxDepth: 6, Seed: 99, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		b, err := f.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq := snapshot(1)
	for _, w := range []int{0, 2, 3, 8, 16} {
		if par := snapshot(w); !bytes.Equal(seq, par) {
			t.Fatalf("workers=%d snapshot differs from workers=1 (%d vs %d bytes)",
				w, len(par), len(seq))
		}
	}
}

// TestWorkersExcludedFromSnapshot pins the json:"-" tag on Params.Workers:
// a runtime tuning knob must not leak into persisted models (it would break
// snapshot equality across machines with different core counts). The
// snapshot's PRMS section is the JSON-encoded Params.
func TestWorkersExcludedFromSnapshot(t *testing.T) {
	d := xorDataset(100, 0.1, rand.New(rand.NewSource(22)))
	f, err := Train(d, Params{NumTrees: 4, Seed: 1, Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := parsePackSections(b)
	if err != nil {
		t.Fatal(err)
	}
	if prms := secs["PRMS"]; bytes.Contains(prms, []byte("workers")) || bytes.Contains(prms, []byte("Workers")) {
		t.Fatalf("snapshot leaks the Workers knob: %s", prms)
	}
	back, err := ForestFromBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.params.Workers != 0 {
		t.Fatalf("restored forest should not carry a worker count, got %d", back.params.Workers)
	}
}

// TestParallelImportanceMatchesSequential checks the importance merge path
// specifically: per-tree accumulators folded in tree order must reproduce
// the sequential accumulation exactly (float addition is not associative,
// so a per-worker merge would drift).
func TestParallelImportanceMatchesSequential(t *testing.T) {
	d := xorDataset(300, 0.2, rand.New(rand.NewSource(23)))
	f1, err := Train(d, Params{NumTrees: 30, MaxDepth: 5, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f8, err := Train(d, Params{NumTrees: 30, MaxDepth: 5, Seed: 5, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	i1, i8 := f1.Importance(), f8.Importance()
	for k := range i1 {
		if i1[k] != i8[k] {
			t.Fatalf("importance[%d]: workers=1 %v != workers=8 %v", k, i1[k], i8[k])
		}
	}
}
