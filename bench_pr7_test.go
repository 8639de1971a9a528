// Model-load benchmarks: JSON snapshot restore vs the scoutpack binary
// path, warm in-memory and cold through the disk envelope. Pair
// RestoreJSON/RestorePack and ColdLoadJSON/ColdLoadPack — each pair runs
// the identical workload, so ns/op divides directly.
package scouts_test

import (
	"path/filepath"
	"testing"

	"scouts/internal/core"
	"scouts/internal/serving"
)

// BenchmarkRestoreJSON times core.Restore on the lab scout's JSON
// snapshot — parse, rebuild pointer trees, re-derive the flat arrays.
func BenchmarkRestoreJSON(b *testing.B) {
	l := lab(b)
	snap, err := l.Scout.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	topo, tel := l.Gen.Topology(), l.Gen.Telemetry()
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Restore(snap, topo, tel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestorePack times core.Restore on the scoutpack form of the
// same scout: checksum verification plus direct adoption of the flat
// arrays, zero re-derivation.
func BenchmarkRestorePack(b *testing.B) {
	l := lab(b)
	pack, err := l.Scout.SnapshotPack()
	if err != nil {
		b.Fatal(err)
	}
	topo, tel := l.Gen.Topology(), l.Gen.Telemetry()
	b.SetBytes(int64(len(pack)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Restore(pack, topo, tel); err != nil {
			b.Fatal(err)
		}
	}
}

// benchColdLoad times the full disk path — read the store file, verify
// the envelope (and for .pack the embedded scoutpack checksum), then
// Restore — the cost a replica pays per hot-swap from a published
// store. The OS page cache stays warm across iterations; the "cold"
// here is the serving process, which re-parses and re-verifies
// everything each time.
func benchColdLoad(b *testing.B, pack bool) {
	l := lab(b)
	var snap []byte
	var err error
	if pack {
		snap, err = l.Scout.SnapshotPack()
	} else {
		snap, err = l.Scout.Snapshot()
	}
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	st := serving.NewStore()
	st.Put(l.Scout.Team(), snap)
	if err := serving.SaveStore(st, dir); err != nil {
		b.Fatal(err)
	}
	ext := ".json"
	if pack {
		ext = ".pack"
	}
	path := filepath.Join(dir, "model-000001"+ext)
	topo, tel := l.Gen.Topology(), l.Gen.Telemetry()
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := serving.ReadModelFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Restore(m.Snapshot, topo, tel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdLoadJSON and BenchmarkColdLoadPack are the disk-path
// pair of BenchmarkRestoreJSON/BenchmarkRestorePack.
func BenchmarkColdLoadJSON(b *testing.B) { benchColdLoad(b, false) }
func BenchmarkColdLoadPack(b *testing.B) { benchColdLoad(b, true) }
