package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"scouts/internal/core"
)

// The disk-store and chaos tests share one clean-trained scoutpack
// (training is the expensive part and every test serves the same model).
var (
	oncePack sync.Once
	packData []byte
	packErr  error
)

// packFixture returns the shared scoutpack. Callers must not mutate it.
func packFixture(t testing.TB) []byte {
	t.Helper()
	gen, log, cfg := testEnv(t)
	oncePack.Do(func() {
		scout, err := core.Train(core.TrainOptions{
			Config:    cfg,
			Topology:  gen.Topology(),
			Source:    gen.Telemetry(),
			Incidents: log.Incidents[:300],
			Seed:      1,
		})
		if err != nil {
			packErr = err
			return
		}
		packData, packErr = scout.Snapshot()
	})
	if packErr != nil {
		t.Fatal(packErr)
	}
	return packData
}

// TestSaveLoadPackRoundTrip pins the .pack disk format end to end: a
// scoutpack snapshot saves as model-%06d.pack, survives the load with its
// bytes intact, and the server serves predictions from it.
func TestSaveLoadPackRoundTrip(t *testing.T) {
	pack := packFixture(t)
	dir := t.TempDir()
	st := NewStore()
	st.Now = func() time.Time { return time.Unix(1700000000, 0) }
	st.Put("PhyNet", pack)
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "model-000001.pack")); err != nil {
		t.Fatalf("pack snapshot did not save as .pack: %v", err)
	}
	loaded, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loaded) != 1 || len(rep.Quarantined) != 0 {
		t.Fatalf("report = %+v", rep)
	}
	m, ok := loaded.Get(1)
	if !ok || !bytes.Equal(m.Snapshot, pack) {
		t.Fatal("pack bytes did not survive the round trip")
	}
	if m.Team != "PhyNet" || !m.TrainedAt.Equal(time.Unix(1700000000, 0)) {
		t.Fatalf("pack metadata drifted: %+v", m)
	}

	gen, _, _ := testEnv(t)
	srv := NewServer(gen.Topology(), gen.Telemetry(), loaded, nil)
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"title":"link down","body":"tor1.c1.dc1 reports link flaps","time":100}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict over pack-loaded model: status %d", resp.StatusCode)
	}
}

// TestLoadStoreQuarantinesLegacyJSON pins what happens to a store file
// from the removed JSON snapshot format: it is quarantined with a reason
// that says why, while the scoutpack versions beside it load.
func TestLoadStoreQuarantinesLegacyJSON(t *testing.T) {
	pack := packFixture(t)
	dir := t.TempDir()
	st := NewStore()
	st.Put("PhyNet", pack)
	st.Put("PhyNet", pack)
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "model-000001.json")
	if err := os.WriteFile(legacy, []byte(`{"checksum":"sha256:00","model":{"version":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Versions() != 2 || len(rep.Loaded) != 2 {
		t.Fatalf("versions = %d, report = %+v; the packs must still load", loaded.Versions(), rep)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("quarantined = %+v, want the legacy JSON file", rep.Quarantined)
	}
	q := rep.Quarantined[0]
	if q.Name != "model-000001.json" || q.Reason != legacyJSONReason || !q.Renamed {
		t.Fatalf("legacy quarantine entry = %+v", q)
	}
	if _, err := os.Stat(legacy + ".quarantined"); err != nil {
		t.Fatalf("legacy JSON file not set aside: %v", err)
	}
}

// TestSaveStoreRejectsNonScoutpack pins that a store only ever writes
// scoutpacks: a snapshot in any other format fails the save.
func TestSaveStoreRejectsNonScoutpack(t *testing.T) {
	dir := t.TempDir()
	st := NewStore()
	st.Put("PhyNet", []byte(`{"config":""}`))
	err := SaveStore(st, dir)
	if !errors.Is(err, core.ErrNotScoutpack) {
		t.Fatalf("SaveStore of a JSON snapshot: err = %v, want ErrNotScoutpack", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "model-000001.pack")); err == nil {
		t.Fatal("a rejected snapshot must not reach the disk")
	}
}

// TestPackPayloadVerifiedOnLoad pins load-time verification of the inner
// scoutpack: a .pack file whose payload checksum matches but whose
// scoutpack envelope is damaged quarantines instead of loading.
func TestPackPayloadVerifiedOnLoad(t *testing.T) {
	pack := packFixture(t)
	dir := t.TempDir()
	st := NewStore()
	st.Put("X", pack)
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte AND refresh the envelope checksum, so only the
	// scoutpack's own sha256 can catch it. SaveStore refuses to write a
	// damaged scoutpack, so the envelope is written directly.
	path := filepath.Join(dir, "model-000001.pack")
	damaged := append([]byte(nil), pack...)
	damaged[len(damaged)/2] ^= 0x01
	if err := os.WriteFile(path, encodePackFile(Model{Version: 1, Team: "X", Snapshot: damaged}), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || !strings.Contains(rep.Quarantined[0].Reason, "scoutpack payload") {
		t.Fatalf("report = %+v, want a scoutpack-payload quarantine", rep)
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Fatalf("damaged pack not set aside: %v", err)
	}
}

// TestLoadStoreLazyVersions pins the eager/lazy split: only the newest
// EagerVersions files are read at load time; older versions are
// registered by path, materialize on first Get, and quarantine on first
// Get when their file is damaged.
func TestLoadStoreLazyVersions(t *testing.T) {
	pack := packFixture(t)
	dir := t.TempDir()
	st := NewStore()
	for i := 1; i <= 5; i++ {
		st.Put("X", pack)
	}
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}

	loaded, rep, err := LoadStore(dir) // default: 2 eager
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Loaded); got != 2 {
		t.Fatalf("eager loads = %v, want the newest 2", rep.Loaded)
	}
	if got := len(rep.Lazy); got != 3 {
		t.Fatalf("lazy registrations = %v, want 3", rep.Lazy)
	}
	if loaded.Versions() != 5 {
		t.Fatalf("versions = %d, want all 5 visible", loaded.Versions())
	}
	// Latest never touches the lazy files.
	if m, ok := loaded.Latest(); !ok || m.Version != 5 || !bytes.Equal(m.Snapshot, pack) {
		t.Fatalf("latest = %+v", m)
	}

	// Damage v1 on disk AFTER the load: an eager loader would have caught
	// it already; the lazy path must catch it on first Get.
	path1 := filepath.Join(dir, "model-000001.pack")
	data, err := os.ReadFile(path1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path1, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := loaded.Get(1); ok {
		t.Fatal("damaged lazy version must not load")
	}
	q := loaded.QuarantinedLazy()
	if len(q) != 1 || q[0].Reason == "" || !q[0].Renamed {
		t.Fatalf("lazy quarantine report = %+v", q)
	}
	if _, err := os.Stat(path1 + ".quarantined"); err != nil {
		t.Fatalf("damaged file not set aside: %v", err)
	}
	if loaded.Versions() != 4 {
		t.Fatalf("versions after quarantine = %d, want 4", loaded.Versions())
	}
	// A healthy lazy version materializes on first Get and stays cached.
	m, ok := loaded.Get(2)
	if !ok || m.Version != 2 || !bytes.Equal(m.Snapshot, pack) || m.Team != "X" {
		t.Fatalf("lazy v2 = %+v, %v", m, ok)
	}
	if err := os.Remove(filepath.Join(dir, "model-000002.pack")); err != nil {
		t.Fatal(err)
	}
	if m, ok := loaded.Get(2); !ok || !bytes.Equal(m.Snapshot, pack) {
		t.Fatalf("materialized v2 must not re-read its file: %+v, %v", m, ok)
	}
	if drained := loaded.QuarantinedLazy(); len(drained) != 0 {
		t.Fatalf("quarantine report must drain: %+v", drained)
	}
}

// TestLoadStoreEagerOverride pins the option: negative means everything
// eager, explicit N means exactly N.
func TestLoadStoreEagerOverride(t *testing.T) {
	pack := packFixture(t)
	dir := t.TempDir()
	st := NewStore()
	for i := 1; i <= 4; i++ {
		st.Put("X", pack)
	}
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	all, rep, err := LoadStoreOptions(dir, LoadOptions{EagerVersions: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loaded) != 4 || len(rep.Lazy) != 0 || all.Versions() != 4 {
		t.Fatalf("eager=-1: report = %+v", rep)
	}
	_, rep, err = LoadStoreOptions(dir, LoadOptions{EagerVersions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loaded) != 1 || len(rep.Lazy) != 3 {
		t.Fatalf("eager=1: report = %+v", rep)
	}
}

// TestReloadRecordsLoadStats pins the model-load observability pair
// under an injected clock: duration and bytes land in /metrics after a
// reload.
func TestReloadRecordsLoadStats(t *testing.T) {
	pack := packFixture(t)
	gen, _, _ := testEnv(t)
	st := NewStore()
	st.Put("PhyNet", pack)
	srv := NewServer(gen.Topology(), gen.Telemetry(), st, nil)
	// Stepping clock: every reading advances 250ms, so one Reload (two
	// readings) records exactly 0.25s.
	now := time.Unix(1700000000, 0)
	srv.Clock = func() time.Time {
		now = now.Add(250 * time.Millisecond)
		return now
	}
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Metrics().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "scout_model_load_duration_seconds 0.25") {
		t.Fatalf("load duration gauge missing or wrong:\n%s", grepMetric(body, "scout_model_load_duration_seconds"))
	}
	if !strings.Contains(body, "scout_model_bytes "+strconv.Itoa(len(pack))) {
		t.Fatalf("model bytes gauge wrong:\n%s", grepMetric(body, "scout_model_bytes"))
	}
}

// TestReloadStoreHook pins the /v1/reload -> directory re-read path: a
// version published to the store directory by another process is picked
// up by the HTTP reload without restarting the server.
func TestReloadStoreHook(t *testing.T) {
	pack := packFixture(t)
	dir := t.TempDir()
	seed := NewStore()
	seed.Put("PhyNet", pack)
	if err := SaveStore(seed, dir); err != nil {
		t.Fatal(err)
	}
	gen, _, _ := testEnv(t)
	first, _, err := LoadStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(gen.Topology(), gen.Telemetry(), first, nil)
	srv.ReloadStore = func() (*Store, error) {
		st, _, err := LoadStore(dir)
		return st, err
	}
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}

	// Another process publishes v2 into the directory.
	pub := NewStore()
	pub.Put("PhyNet", pack)
	pub.Put("PhyNet", pack)
	if err := SaveStore(pub, dir); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	var health struct {
		ModelVersion int `json:"model_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.ModelVersion != 2 {
		t.Fatalf("served version after reload = %d, want 2", health.ModelVersion)
	}
}

// TestReadModelFileRejectsDamage pins that ReadModelFile is a full
// verification pass, not a parse: a bit flip anywhere in a .pack file
// fails it.
func TestReadModelFileRejectsDamage(t *testing.T) {
	pack := packFixture(t)
	dir := t.TempDir()
	st := NewStore()
	st.Put("PhyNet", pack)
	if err := SaveStore(st, dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "model-000001.pack")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadModelFile(path); err == nil {
		t.Fatal("ReadModelFile accepted a damaged pack file")
	}
}

// grepMetric returns the lines of a scrape mentioning one metric, for
// readable failures.
func grepMetric(body, name string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, name) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
