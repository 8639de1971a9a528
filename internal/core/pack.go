package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"scouts/internal/ml/cpd"
	"scouts/internal/ml/forest"
)

// This file is the Scout-level binary snapshot ("scoutpack"): the
// container that ships a whole trained Scout — routing forest, CPD+ model,
// selector — as one checksummed blob whose forest payloads are the SFF1
// flat arrays (forest/pack.go), loadable with zero re-derivation. It is
// the only snapshot format: Snapshot writes it and Restore reads it
// (snapshot.go).
//
// Layout ("SCPK", all little-endian):
//
//	magic "SCPK" | u32 version | sha256[32] | u32 sectionCount
//	per section: tag[4] | pad[4] | u64 payloadLen | payload | pad to 8
//
// The checksum covers every byte after itself (sectionCount and all
// sections), so a torn or bit-flipped file is rejected before any section
// is parsed. Sections, in fixed order, optional ones simply absent:
//
//	META  JSON packMetaDTO: config source, train means, detector params,
//	      CPD+ params, selector words/threshold, presence flags
//	FRST  SFF1 routing forest (required)
//	CRST  SFF1 CPD+ broad-incident forest (optional)
//	SRST  SFF1 selector meta-forest (optional)

const (
	scoutpackMagic   = "SCPK"
	scoutpackVersion = 1
)

// scoutpackSections is the fixed section order; optional sections may be
// absent but never reordered.
var scoutpackSections = []string{"META", "FRST", "CRST", "SRST"}

// ErrNotScoutpack is returned when a blob does not start with the SCPK
// magic.
var ErrNotScoutpack = errors.New("core: not a scoutpack snapshot")

// packMetaDTO is the JSON-encoded META section: everything in a snapshot
// that is not a forest. It is deliberately JSON — tiny, human-auditable,
// and versioned by field presence.
type packMetaDTO struct {
	ConfigSource      string         `json:"config"`
	TrainMeans        []float64      `json:"train_means"`
	Detector          cpd.Params     `json:"detector"`
	CPDParams         cpd.PlusParams `json:"cpd_params"`
	SelectorWords     []string       `json:"selector_words,omitempty"`
	SelectorThreshold float64        `json:"selector_threshold,omitempty"`
}

// assemblePack writes the envelope: header with a checksum placeholder,
// sections, then the sha256 over everything after the checksum field.
func assemblePack(meta packMetaDTO, rf, cpdRF, selRF *forest.Forest) ([]byte, error) {
	metaBlob, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("core: packing snapshot meta: %w", err)
	}
	rfBlob, err := rf.AppendBinary(nil)
	if err != nil {
		return nil, fmt.Errorf("core: packing routing forest: %w", err)
	}
	sections := []struct {
		tag     string
		payload []byte
	}{{"META", metaBlob}, {"FRST", rfBlob}}
	if cpdRF != nil {
		blob, err := cpdRF.AppendBinary(nil)
		if err != nil {
			return nil, fmt.Errorf("core: packing CPD+ forest: %w", err)
		}
		sections = append(sections, struct {
			tag     string
			payload []byte
		}{"CRST", blob})
	}
	if selRF != nil {
		blob, err := selRF.AppendBinary(nil)
		if err != nil {
			return nil, fmt.Errorf("core: packing selector forest: %w", err)
		}
		sections = append(sections, struct {
			tag     string
			payload []byte
		}{"SRST", blob})
	}

	buf := append([]byte(nil), scoutpackMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, scoutpackVersion)
	sumAt := len(buf)
	buf = append(buf, make([]byte, sha256.Size)...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sections)))
	for _, sec := range sections {
		buf = append(buf, sec.tag...)
		buf = append(buf, 0, 0, 0, 0)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(sec.payload)))
		buf = append(buf, sec.payload...)
		for len(buf)%8 != 0 {
			buf = append(buf, 0)
		}
	}
	sum := sha256.Sum256(buf[sumAt+sha256.Size:])
	copy(buf[sumAt:], sum[:])
	return buf, nil
}

// parseScoutpack verifies the envelope (magic, version, checksum) and
// returns the section payloads keyed by tag. Every length is checked
// against the remaining buffer before slicing.
func parseScoutpack(data []byte) (map[string][]byte, error) {
	headerLen := 4 + 4 + sha256.Size + 4
	if len(data) < 8 || string(data[:4]) != scoutpackMagic {
		return nil, ErrNotScoutpack
	}
	if len(data) < headerLen {
		return nil, errors.New("core: scoutpack header truncated")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != scoutpackVersion {
		return nil, fmt.Errorf("core: scoutpack version %d not supported (want %d)", v, scoutpackVersion)
	}
	sumAt := 8
	stored := data[sumAt : sumAt+sha256.Size]
	if sum := sha256.Sum256(data[sumAt+sha256.Size:]); string(sum[:]) != string(stored) {
		return nil, errors.New("core: scoutpack checksum mismatch (torn or corrupted file)")
	}
	count := int(binary.LittleEndian.Uint32(data[sumAt+sha256.Size:]))
	if count < 2 || count > len(scoutpackSections) {
		return nil, fmt.Errorf("core: scoutpack carries %d sections, want 2..%d", count, len(scoutpackSections))
	}
	secs := make(map[string][]byte, count)
	off := headerLen
	next := 0
	for i := 0; i < count; i++ {
		if len(data)-off < 16 {
			return nil, errors.New("core: scoutpack section header truncated")
		}
		tag := string(data[off : off+4])
		// Tags must appear in scoutpackSections order, each at most once.
		for next < len(scoutpackSections) && scoutpackSections[next] != tag {
			next++
		}
		if next == len(scoutpackSections) {
			return nil, fmt.Errorf("core: scoutpack section %q unknown or out of order", tag)
		}
		next++
		n := binary.LittleEndian.Uint64(data[off+8:])
		off += 16
		if n > uint64(len(data)-off) {
			return nil, fmt.Errorf("core: scoutpack section %q claims %d bytes, only %d remain", tag, n, len(data)-off)
		}
		secs[tag] = data[off : off+int(n)]
		off += int(n)
		off = (off + 7) &^ 7
		if off > len(data) {
			return nil, errors.New("core: scoutpack section padding overruns buffer")
		}
	}
	if secs["META"] == nil || secs["FRST"] == nil {
		return nil, errors.New("core: scoutpack missing META or FRST section")
	}
	return secs, nil
}

// PackInfo summarizes a scoutpack for operators (`scoutctl inspect`).
type PackInfo struct {
	Version     int     `json:"version"`
	Bytes       int     `json:"bytes"`
	Features    int     `json:"features"`
	Trees       int     `json:"trees"`
	Nodes       int     `json:"nodes"`
	CPDTrees    int     `json:"cpd_trees"`
	SelTrees    int     `json:"selector_trees"`
	TrainMeans  int     `json:"train_means"`
	SelectorThr float64 `json:"selector_threshold,omitempty"`
}

// InspectPack verifies a scoutpack's envelope and returns its summary
// without needing a topology or data source.
func InspectPack(data []byte) (PackInfo, error) {
	secs, err := parseScoutpack(data)
	if err != nil {
		return PackInfo{}, err
	}
	var meta packMetaDTO
	if err := json.Unmarshal(secs["META"], &meta); err != nil {
		return PackInfo{}, fmt.Errorf("core: scoutpack META: %w", err)
	}
	info := PackInfo{
		Version:     scoutpackVersion,
		Bytes:       len(data),
		TrainMeans:  len(meta.TrainMeans),
		SelectorThr: meta.SelectorThreshold,
	}
	rf, err := forest.ForestFromBinary(secs["FRST"])
	if err != nil {
		return PackInfo{}, fmt.Errorf("core: scoutpack routing forest: %w", err)
	}
	info.Features = len(rf.Features())
	info.Trees = rf.NumTrees()
	info.Nodes = rf.NumNodes()
	if blob := secs["CRST"]; blob != nil {
		f, err := forest.ForestFromBinary(blob)
		if err != nil {
			return PackInfo{}, fmt.Errorf("core: scoutpack CPD+ forest: %w", err)
		}
		info.CPDTrees = f.NumTrees()
	}
	if blob := secs["SRST"]; blob != nil {
		f, err := forest.ForestFromBinary(blob)
		if err != nil {
			return PackInfo{}, fmt.Errorf("core: scoutpack selector forest: %w", err)
		}
		info.SelTrees = f.NumTrees()
	}
	return info, nil
}

// VerifyScoutpack checks a scoutpack's envelope — magic, version,
// checksum, section table — without building any model from it. The
// diskstore uses it to quarantine damaged files at load time instead of
// failing a later hot-swap.
func VerifyScoutpack(data []byte) error {
	_, err := parseScoutpack(data)
	return err
}
