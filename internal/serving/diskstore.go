package serving

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"scouts/internal/core"
)

// The disk store persists each model version as model-%06d.pack, the
// binary envelope around a scoutpack snapshot:
//
//	magic "SDP1" | u32 metaLen | meta JSON | raw scoutpack bytes
//
// The meta JSON carries version/team/trained_at and the payload checksum.
// Loading a file never parses the multi-megabyte snapshot through
// encoding/json, which is the point: the snapshot bytes land in memory
// as-is and core.Restore's zero-re-derivation path takes over. Damaged
// files are quarantined, not fatal, and so is a legacy model-%06d.json
// file from the removed JSON snapshot format.

// packEnvelopeMagic heads a .pack store file (the disk envelope, not the
// scoutpack payload itself, which carries its own "SCPK" magic+checksum).
const packEnvelopeMagic = "SDP1"

// legacyJSONReason is the quarantine reason for model-%06d.json files.
const legacyJSONReason = "JSON snapshot format removed; retrain to publish a scoutpack"

// packMeta is the JSON header of a .pack store file: the Model's
// metadata fields, kept outside the binary payload so `ls` + `head` on a
// store directory stays explicable without a scoutpack parser.
type packMeta struct {
	Version   int    `json:"version"`
	Team      string `json:"team"`
	TrainedAt string `json:"trained_at"` // RFC3339Nano
	Checksum  string `json:"checksum"`   // "sha256:" + hex of payload
}

func checksumOf(payload []byte) string {
	sum := sha256.Sum256(payload)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// SaveStore persists every model version of a store to a directory, one
// model-%06d.pack file per version; a snapshot that is not a valid
// scoutpack is an error. The directory is created if needed. Each file
// is written crash-safely: the bytes go to a temp file in the same
// directory, the temp file is fsynced before the atomic rename, and the
// directory itself is fsynced after, so a crash at any instant leaves
// either the old file, the new file, or an ignorable *.tmp — never a
// half-written model under the final name. The directory sync is
// deferred so it also covers error returns: a save that fails on version
// N must not leave versions 1..N-1 renamed but undurable.
func SaveStore(st *Store, dir string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serving: creating %s: %w", dir, err)
	}
	defer func() {
		if serr := syncDir(dir); err == nil {
			err = serr
		}
	}()
	st.mu.Lock()
	models := append([]Model(nil), st.models...)
	st.mu.Unlock()
	for _, m := range models {
		if m.Snapshot == nil {
			// A lazily-loaded model that was never materialized is already
			// on disk in the directory it was loaded from; writing it
			// requires its bytes, so materialize through the store.
			got, ok := st.Get(m.Version)
			if !ok {
				return fmt.Errorf("serving: v%d is lazy and its file is unreadable", m.Version)
			}
			m = got
		}
		if err := core.VerifyScoutpack(m.Snapshot); err != nil {
			return fmt.Errorf("serving: saving v%d: %w", m.Version, err)
		}
		if err := writeFileSync(filepath.Join(dir, fmt.Sprintf("model-%06d.pack", m.Version)), encodePackFile(m)); err != nil {
			return err
		}
	}
	return nil
}

// timeLayout serializes TrainedAt in the pack envelope exactly as
// encoding/json serializes time.Time (RFC3339Nano).
const timeLayout = "2006-01-02T15:04:05.999999999Z07:00"

// writeFileSync writes data to path through a same-directory temp file,
// fsyncing the file before the rename commits it.
func writeFileSync(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("serving: writing %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("serving: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("serving: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serving: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serving: committing %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Best-effort on filesystems that reject directory fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("serving: syncing %s: %w", dir, err)
	}
	defer d.Close()
	d.Sync()
	return nil
}

// LoadReport says what LoadStore found: which versions loaded eagerly,
// which were registered lazily (verified only on first Get), and which
// files were quarantined (set aside with reasons) instead of failing the
// whole load — one rotten version must not take down a store holding
// good ones.
type LoadReport struct {
	Loaded      []int             `json:"loaded"`
	Lazy        []int             `json:"lazy,omitempty"`
	Quarantined []QuarantinedFile `json:"quarantined,omitempty"`
}

// QuarantinedFile is one model file the store refused to load. The file
// is renamed to <name>.quarantined so the next save or load does not trip
// over it again; Renamed is false if the rename itself failed.
type QuarantinedFile struct {
	Name    string `json:"name"`
	Reason  string `json:"reason"`
	Renamed bool   `json:"renamed"`
}

// LoadOptions tune LoadStoreOptions.
type LoadOptions struct {
	// EagerVersions is how many of the newest versions are read and
	// verified at load time. Older versions are registered lazily: their
	// files are opened, verified and decoded only on the first Get. Zero
	// means the default (2: the serving version plus one rollback step);
	// negative means every version loads eagerly.
	EagerVersions int
}

// DefaultEagerVersions is the LoadOptions.EagerVersions default: the
// latest version (what Reload serves) plus one rollback candidate. A
// store directory holding months of history costs two file reads at
// boot, not a full-directory parse.
const DefaultEagerVersions = 2

// LoadStore reads a directory written by SaveStore back into a Store
// with the default options. See LoadStoreOptions.
func LoadStore(dir string) (*Store, *LoadReport, error) {
	return LoadStoreOptions(dir, LoadOptions{})
}

// LoadStoreOptions reads a directory written by SaveStore back into a
// Store. The newest EagerVersions versions are read and verified now;
// older files are registered by path and verified on first Get, which
// quarantines them exactly as an eager load would. Files that fail to
// read, decode, or checksum are quarantined — renamed to *.quarantined
// and listed in the report — and the remaining versions load; gaps in
// the version sequence are tolerated for the same reason. Legacy
// model-%06d.json files are quarantined too, with legacyJSONReason. The
// error is non-nil only when the directory itself cannot be read.
func LoadStoreOptions(dir string, opt LoadOptions) (*Store, *LoadReport, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("serving: reading %s: %w", dir, err)
	}
	eager := opt.EagerVersions
	if eager == 0 {
		eager = DefaultEagerVersions
	}
	type vf struct {
		v    int
		name string
	}
	st := NewStore()
	rep := &LoadReport{}
	var files []vf
	for _, e := range entries {
		name := e.Name()
		if _, ok := modelFileVersion(name, ".json"); ok {
			rep.Quarantined = append(rep.Quarantined, quarantineFile(filepath.Join(dir, name), legacyJSONReason))
		} else if v, ok := modelFileVersion(name, ".pack"); ok {
			files = append(files, vf{v, name})
		}
	}
	slices.SortFunc(files, func(a, b vf) int { return a.v - b.v })

	for i, f := range files {
		path := filepath.Join(dir, f.name)
		if eager >= 0 && len(files)-i > eager {
			// Old version: register by path, defer the read to first Get.
			st.models = append(st.models, Model{Version: f.v, path: path})
			rep.Lazy = append(rep.Lazy, f.v)
			continue
		}
		m, reason := loadModelFile(path, f.v)
		if reason != "" {
			rep.Quarantined = append(rep.Quarantined, quarantineFile(path, reason))
			continue
		}
		st.models = append(st.models, m)
		rep.Loaded = append(rep.Loaded, m.Version)
	}
	return st, rep, nil
}

// modelFileVersion parses the version out of a "model-%06d<ext>" name.
func modelFileVersion(name, ext string) (int, bool) {
	num, ok := strings.CutPrefix(name, "model-")
	if !ok {
		return 0, false
	}
	if num, ok = strings.CutSuffix(num, ext); !ok {
		return 0, false
	}
	v, err := strconv.Atoi(num)
	return v, err == nil
}

// quarantineFile renames a damaged model file to <name>.quarantined and
// returns the report entry.
func quarantineFile(path, reason string) QuarantinedFile {
	q := QuarantinedFile{Name: filepath.Base(path), Reason: reason}
	q.Renamed = os.Rename(path, path+".quarantined") == nil
	return q
}

// encodePackFile renders one scoutpack model in the .pack envelope.
func encodePackFile(m Model) []byte {
	// Marshaling a struct of strings and an int cannot fail.
	meta, _ := json.Marshal(packMeta{
		Version:   m.Version,
		Team:      m.Team,
		TrainedAt: m.TrainedAt.Format(timeLayout),
		Checksum:  checksumOf(m.Snapshot),
	})
	data := append([]byte(nil), packEnvelopeMagic...)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(meta)))
	data = append(data, meta...)
	return append(data, m.Snapshot...)
}

// ReadModelFile reads and fully verifies one .pack model file without
// going through a Store — `scoutctl inspect` uses it on files directly.
// A file not named model-%06d.pack is trusted to carry its own version.
func ReadModelFile(path string) (Model, error) {
	want, ok := modelFileVersion(filepath.Base(path), ".pack")
	if !ok {
		want = -1
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Model{}, fmt.Errorf("serving: %w", err)
	}
	m, reason := decodePackFile(data, want)
	if reason != "" {
		return Model{}, fmt.Errorf("serving: %s: %s", filepath.Base(path), reason)
	}
	return m, nil
}

// loadModelFile reads and fully verifies one .pack model file. It
// returns the model, or a non-empty quarantine reason.
func loadModelFile(path string, wantVersion int) (Model, string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Model{}, "read: " + err.Error()
	}
	return decodePackFile(data, wantVersion)
}

// decodePackFile decodes and verifies a .pack envelope: its meta, the
// payload checksum, the version (unless wantVersion is negative) and the
// payload's own scoutpack envelope. It returns the model, or a non-empty
// quarantine reason.
func decodePackFile(data []byte, wantVersion int) (Model, string) {
	if len(data) < 8 || string(data[:4]) != packEnvelopeMagic {
		return Model{}, "malformed pack envelope"
	}
	metaLen := int(binary.LittleEndian.Uint32(data[4:]))
	if metaLen < 0 || metaLen > len(data)-8 {
		return Model{}, "pack envelope meta length overruns file"
	}
	var meta packMeta
	if err := json.Unmarshal(data[8:8+metaLen], &meta); err != nil {
		return Model{}, "decoding pack meta: " + err.Error()
	}
	payload := data[8+metaLen:]
	if got := checksumOf(payload); got != meta.Checksum {
		return Model{}, fmt.Sprintf("checksum mismatch: file says %s, content is %s", meta.Checksum, got)
	}
	if wantVersion >= 0 && meta.Version != wantVersion {
		return Model{}, fmt.Sprintf("file claims v%d but contains v%d", wantVersion, meta.Version)
	}
	// The payload must be a structurally-sound scoutpack: its own
	// envelope (magic, version, inner sha256) is verified here so a
	// damaged snapshot quarantines at load, not at Restore.
	if err := core.VerifyScoutpack(payload); err != nil {
		return Model{}, "scoutpack payload: " + err.Error()
	}
	m := Model{Version: meta.Version, Team: meta.Team, Snapshot: payload}
	if meta.TrainedAt != "" {
		if err := m.TrainedAt.UnmarshalText([]byte(meta.TrainedAt)); err != nil {
			return Model{}, "decoding pack meta time: " + err.Error()
		}
	}
	return m, ""
}
