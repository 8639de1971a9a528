package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"scouts/internal/ml/cpd"
	"scouts/internal/ml/forest"
	"scouts/internal/monitoring"
	"scouts/internal/text"
	"scouts/internal/topology"
)

// ErrNotSnapshottable is returned when the Scout cannot be serialized
// (custom decider models, or a Config built without source text).
var ErrNotSnapshottable = errors.New("core: scout is not snapshottable")

// Snapshot serializes a trained Scout to a scoutpack (pack.go):
// everything the online serving component needs to answer queries (§6:
// the offline component trains, persists to highly-available storage,
// and the online component serves). Only the default selector is
// serializable; a Scout with a swapped decider returns
// ErrNotSnapshottable. Restored Scouts snapshot too: restoring
// Snapshot's output and snapshotting again reproduces the same bytes.
func (s *Scout) Snapshot() ([]byte, error) {
	if s.cfg.Source == "" {
		return nil, fmt.Errorf("%w: configuration has no source text", ErrNotSnapshottable)
	}
	sel, ok := s.selector.(*Selector)
	if !ok {
		return nil, fmt.Errorf("%w: custom decider %T", ErrNotSnapshottable, s.selector)
	}
	cpdParams, cpdRF := s.cpdPlus.Parts()
	meta := packMetaDTO{
		ConfigSource: s.cfg.Source,
		TrainMeans:   s.trainMeans,
		Detector:     s.detector,
		CPDParams:    cpdParams,
	}
	var selRF *forest.Forest
	if sel.rf != nil {
		meta.SelectorWords = sel.words.Names()
		meta.SelectorThreshold = sel.threshold
		selRF = sel.rf
	}
	return assemblePack(meta, s.rf, cpdRF, selRF)
}

// Restore rebuilds a Scout from a scoutpack against a (possibly
// different) topology and data source with the same monitoring registry.
// A blob without the scoutpack magic fails with an error wrapping
// ErrNotScoutpack. The forests come up flat-only: inference works through
// the SFF1 arrays with zero re-derivation.
func Restore(data []byte, topo *topology.Topology, source monitoring.DataSource) (*Scout, error) {
	secs, err := parseScoutpack(data)
	if err != nil {
		return nil, err
	}
	var meta packMetaDTO
	if err := json.Unmarshal(secs["META"], &meta); err != nil {
		return nil, fmt.Errorf("core: scoutpack META: %w", err)
	}
	rf, err := forest.ForestFromBinary(secs["FRST"])
	if err != nil {
		return nil, fmt.Errorf("core: scoutpack routing forest: %w", err)
	}
	// Imputation indexes the train means by feature slot.
	if got, want := len(meta.TrainMeans), len(rf.Features()); got != want {
		return nil, fmt.Errorf("core: scoutpack carries %d train means for %d features", got, want)
	}
	var cpdRF *forest.Forest
	if blob := secs["CRST"]; blob != nil {
		if cpdRF, err = forest.ForestFromBinary(blob); err != nil {
			return nil, fmt.Errorf("core: scoutpack CPD+ forest: %w", err)
		}
	}
	cfg, err := ParseConfig(meta.ConfigSource)
	if err != nil {
		return nil, fmt.Errorf("core: scoutpack config: %w", err)
	}
	s := &Scout{
		cfg:        cfg,
		rf:         rf,
		cpdPlus:    cpd.PlusFromParts(meta.CPDParams, cpdRF),
		trainMeans: meta.TrainMeans,
		detector:   meta.Detector,
	}
	s.fb = NewFeatureBuilder(cfg, topo, source)
	if got, want := len(s.fb.FeatureNames()), len(rf.Features()); got != want {
		return nil, fmt.Errorf("core: scoutpack layout (%d features) does not match data source (%d)", want, got)
	}
	if blob := secs["SRST"]; blob != nil {
		selRF, err := forest.ForestFromBinary(blob)
		if err != nil {
			return nil, fmt.Errorf("core: scoutpack selector forest: %w", err)
		}
		s.selector = &Selector{
			words:     text.NewWordCounter(meta.SelectorWords),
			rf:        selRF,
			threshold: meta.SelectorThreshold,
		}
	} else {
		s.selector = &Selector{}
	}
	return s, nil
}
