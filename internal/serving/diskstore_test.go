package serving

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadStoreRoundTrip(t *testing.T) {
	pack := packFixture(t)
	dir := t.TempDir()
	st := NewStore()
	st.Put("PhyNet", pack)
	st.Put("PhyNet", pack)
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	loaded, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Versions() != 2 || len(rep.Loaded) != 2 || len(rep.Quarantined) != 0 {
		t.Fatalf("versions = %d, report = %+v", loaded.Versions(), rep)
	}
	m, ok := loaded.Get(2)
	if !ok || m.Version != 2 || !bytes.Equal(m.Snapshot, pack) || m.Team != "PhyNet" {
		t.Fatalf("v2 = %+v", m)
	}
}

func TestLoadStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	st := NewStore()
	st.Put("X", packFixture(t))
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A leftover temp file from a crashed save must also be ignored.
	if err := os.WriteFile(filepath.Join(dir, "model-000002.pack.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Versions() != 1 || len(rep.Quarantined) != 0 {
		t.Fatalf("versions = %d, report = %+v", loaded.Versions(), rep)
	}
}

func TestLoadStoreToleratesGaps(t *testing.T) {
	pack := packFixture(t)
	dir := t.TempDir()
	st := NewStore()
	for i := 0; i < 3; i++ {
		st.Put("X", pack)
	}
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "model-000002.pack")); err != nil {
		t.Fatal(err)
	}
	loaded, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Versions() != 2 || len(rep.Quarantined) != 0 {
		t.Fatalf("versions = %d (report %+v), want the 2 surviving files", loaded.Versions(), rep)
	}
	if _, ok := loaded.Get(2); ok {
		t.Fatal("the deleted version must not resurrect")
	}
	if m, ok := loaded.Get(3); !ok || m.Version != 3 || !bytes.Equal(m.Snapshot, pack) {
		t.Fatalf("v3 = %+v, %v", m, ok)
	}
	if m, ok := loaded.Latest(); !ok || m.Version != 3 {
		t.Fatalf("latest = %+v", m)
	}
	// Publishing into the gapped store continues after the highest version.
	if v := loaded.Put("X", []byte("d")); v != 4 {
		t.Fatalf("next version = %d, want 4", v)
	}
}

func TestLoadStoreQuarantinesCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	st := NewStore()
	for i := 0; i < 3; i++ {
		st.Put("X", packFixture(t))
	}
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	// v2: tamper with the model payload, keeping the stale checksum.
	path2 := filepath.Join(dir, "model-000002.pack")
	data, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Clone(data)
	tampered[len(tampered)-1] ^= 0x01
	if err := os.WriteFile(path2, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	// v3: truncate mid-file (the torn-write case).
	path3 := filepath.Join(dir, "model-000003.pack")
	if err := os.WriteFile(path3, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Versions() != 1 {
		t.Fatalf("versions = %d, want only the intact v1", loaded.Versions())
	}
	if len(rep.Quarantined) != 2 {
		t.Fatalf("quarantined = %+v, want 2 entries", rep.Quarantined)
	}
	for _, q := range rep.Quarantined {
		if q.Reason == "" || !q.Renamed {
			t.Fatalf("quarantine entry incomplete: %+v", q)
		}
		if _, err := os.Stat(filepath.Join(dir, q.Name+".quarantined")); err != nil {
			t.Fatalf("quarantined file not set aside: %v", err)
		}
	}
	// The corrupt files are out of the way: a reload sees only good data.
	again, rep2, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if again.Versions() != 1 || len(rep2.Quarantined) != 0 {
		t.Fatalf("second load: versions = %d, report = %+v", again.Versions(), rep2)
	}
}

func TestLoadStoreQuarantinesVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	st := NewStore()
	st.Put("X", packFixture(t))
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	// Rename v1's file to claim v7: the envelope still says version 1.
	if err := os.Rename(filepath.Join(dir, "model-000001.pack"), filepath.Join(dir, "model-000007.pack")); err != nil {
		t.Fatal(err)
	}
	loaded, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Versions() != 0 || len(rep.Quarantined) != 1 {
		t.Fatalf("versions = %d, report = %+v", loaded.Versions(), rep)
	}
	if !strings.Contains(rep.Quarantined[0].Reason, "claims v7") {
		t.Fatalf("reason = %q", rep.Quarantined[0].Reason)
	}
}

func TestLoadStoreMissingDir(t *testing.T) {
	if _, _, err := LoadStore(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing directory should error")
	}
}

func TestSaveStoreEmptyOK(t *testing.T) {
	dir := t.TempDir()
	if err := SaveStore(NewStore(), dir); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Versions() != 0 {
		t.Fatal("expected empty store")
	}
}

// TestSaveStorePartialFailureStillDurable pins the fsyncrename fix: a
// save that fails midway (here: a lazy model whose backing file is
// gone) must still return an error, AND the versions committed before
// the failure must remain present and loadable — SaveStore's deferred
// directory sync runs on the error path too, so those renames are not
// abandoned undurable.
func TestSaveStorePartialFailureStillDurable(t *testing.T) {
	pack := packFixture(t)
	dir := t.TempDir()
	st := NewStore()
	st.Put("PhyNet", pack)
	// Append an unmaterializable model: Snapshot nil and a backing path
	// that does not exist, so SaveStore's materialization via Get fails
	// after v1 has already been written and renamed.
	st.mu.Lock()
	st.models = append(st.models, Model{
		Version: 2,
		Team:    "PhyNet",
		path:    filepath.Join(dir, "never-existed.pack"),
	})
	st.mu.Unlock()

	if err := SaveStore(st, dir); err == nil {
		t.Fatal("SaveStore should fail on the unmaterializable model")
	}
	if _, err := os.Stat(filepath.Join(dir, "model-000001.pack")); err != nil {
		t.Fatalf("v1 should be committed despite the later failure: %v", err)
	}
	loaded, _, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := loaded.Get(1); !ok || !bytes.Equal(m.Snapshot, pack) {
		t.Fatalf("v1 not loadable after partial save: %+v", m)
	}
}
