package forest

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// This file is the forest's binary snapshot: the flat SoA inference view
// (flat.go) written out as-is, so loading is an array copy with zero
// re-derivation — no pointer trees rebuilt, no breadth-first renumbering,
// no JSON text parsed. It is the forest's only snapshot format, because
// at fleet scale model distribution and hot-swap latency are dominated by
// exactly the work it deletes.
//
// Layout ("SFF1", all little-endian):
//
//	magic "SFF1" | u32 sectionCount
//	per section: tag[4] | pad[4] | u64 payloadLen | payload | pad to 8
//
// The 16-byte section header keeps every payload 8-byte aligned relative
// to the start of the blob, so a future mmap-style loader can alias the
// float64/int32 sections directly; today's loader copies element-wise
// through encoding/binary, which is portable across endianness.
//
// Sections, in fixed order:
//
//	FEAT  u32 count, then per feature name: u32 len | bytes
//	PRMS  JSON-encoded Params (human-auditable, tiny)
//	IMPT  float64 × dim   normalized feature importance
//	NDFT  int32   × nodes split feature per node
//	NDTH  float64 × nodes split threshold (+Inf for leaves)
//	NDKD  int32   × nodes absolute left-child index (self for leaves)
//	NDPB  float64 × nodes leaf/node probability
//	ROOT  int32   × trees root node index per tree
//	DPTH  int32   × trees max depth per tree
//	PRIR  float64         training prior (verified against ROOT/NDPB on load)
//
// Everything a reader consumes is bounds-checked against the buffer
// before slicing, and the structural invariants the kernels rely on —
// strictly increasing roots, children after parents (termination),
// feature indices inside the layout, self-looping +Inf leaves, exact
// per-tree depths — are validated on load, so a corrupt or adversarial
// blob errors out instead of panicking (or looping, or answering
// differently in the batch kernel) in a traversal. Whole-blob integrity
// (sha256) is the enclosing envelope's job: core's scoutpack container
// and the diskstore both checksum their payloads.

const packMagic = "SFF1"

// section tags, in the order AppendBinary writes them.
var packSections = []string{"FEAT", "PRMS", "IMPT", "NDFT", "NDTH", "NDKD", "NDPB", "ROOT", "DPTH", "PRIR"}

// ErrNotPacked is returned by ForestFromBinary when the blob does not
// start with the SFF1 magic.
var ErrNotPacked = errors.New("forest: not an SFF1 binary forest")

// AppendBinary appends the forest's SFF1 binary snapshot to buf and
// returns the extended slice. The payload is exactly the flat inference
// arrays; an untrained forest has none and errors.
func (f *Forest) AppendBinary(buf []byte) ([]byte, error) {
	ff := f.flat
	if ff == nil || len(ff.roots) == 0 {
		return nil, errors.New("forest: no flat view to pack (untrained forest)")
	}
	params, err := json.Marshal(f.params)
	if err != nil {
		return nil, fmt.Errorf("forest: packing params: %w", err)
	}

	buf = append(buf, packMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(packSections)))

	// FEAT
	feat := binary.LittleEndian.AppendUint32(nil, uint32(len(f.features)))
	for _, name := range f.features {
		feat = binary.LittleEndian.AppendUint32(feat, uint32(len(name)))
		feat = append(feat, name...)
	}
	buf = appendSection(buf, "FEAT", feat)
	buf = appendSection(buf, "PRMS", params)
	buf = appendSection(buf, "IMPT", appendF64s(nil, f.imp))
	buf = appendSection(buf, "NDFT", appendI32s(nil, ff.feature))
	buf = appendSection(buf, "NDTH", appendF64s(nil, ff.threshold))
	buf = appendSection(buf, "NDKD", appendI32s(nil, ff.kids))
	buf = appendSection(buf, "NDPB", appendF64s(nil, ff.prob))
	buf = appendSection(buf, "ROOT", appendI32s(nil, ff.roots))
	buf = appendSection(buf, "DPTH", appendI32s(nil, ff.depth))
	buf = appendSection(buf, "PRIR", appendF64s(nil, []float64{ff.prior}))
	return buf, nil
}

func appendSection(buf []byte, tag string, payload []byte) []byte {
	buf = append(buf, tag...)
	buf = append(buf, 0, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	for len(buf)%8 != 0 {
		buf = append(buf, 0)
	}
	return buf
}

func appendF64s(buf []byte, vs []float64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func appendI32s(buf []byte, vs []int32) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// ForestFromBinary loads an SFF1 blob written by AppendBinary. The flat
// inference view is filled by direct array copies — newFlatForest never
// runs — so the returned forest is inference-only: it predicts and
// explains through the flat kernels but has no pointer trees. It
// re-serializes with AppendBinary like a trained forest.
func ForestFromBinary(data []byte) (*Forest, error) {
	secs, err := parsePackSections(data)
	if err != nil {
		return nil, err
	}

	// FEAT: the feature-layout header.
	feat := secs["FEAT"]
	if len(feat) < 4 {
		return nil, errors.New("forest: FEAT section truncated")
	}
	dim := int(binary.LittleEndian.Uint32(feat))
	feat = feat[4:]
	// Every name costs at least its 4-byte length, which bounds the
	// capacity a forged count can demand.
	features := make([]string, 0, min(dim, len(feat)/4))
	for i := 0; i < dim; i++ {
		if len(feat) < 4 {
			return nil, errors.New("forest: FEAT name count overruns section")
		}
		n := int(binary.LittleEndian.Uint32(feat))
		feat = feat[4:]
		if n < 0 || n > len(feat) {
			return nil, errors.New("forest: FEAT name length overruns section")
		}
		features = append(features, string(feat[:n]))
		feat = feat[n:]
	}

	var params Params
	if err := json.Unmarshal(secs["PRMS"], &params); err != nil {
		return nil, fmt.Errorf("forest: PRMS section: %w", err)
	}

	imp, err := readF64s(secs["IMPT"], "IMPT")
	if err != nil {
		return nil, err
	}
	if len(imp) != dim {
		return nil, fmt.Errorf("forest: IMPT carries %d importances for %d features", len(imp), dim)
	}

	ff := &flatForest{}
	if ff.feature, err = readI32s(secs["NDFT"], "NDFT"); err != nil {
		return nil, err
	}
	if ff.threshold, err = readF64s(secs["NDTH"], "NDTH"); err != nil {
		return nil, err
	}
	if ff.kids, err = readI32s(secs["NDKD"], "NDKD"); err != nil {
		return nil, err
	}
	if ff.prob, err = readF64s(secs["NDPB"], "NDPB"); err != nil {
		return nil, err
	}
	if ff.roots, err = readI32s(secs["ROOT"], "ROOT"); err != nil {
		return nil, err
	}
	if ff.depth, err = readI32s(secs["DPTH"], "DPTH"); err != nil {
		return nil, err
	}
	prior, err := readF64s(secs["PRIR"], "PRIR")
	if err != nil {
		return nil, err
	}
	if len(prior) != 1 {
		return nil, errors.New("forest: PRIR must carry exactly one value")
	}
	ff.prior = prior[0]

	if err := validateFlat(ff, dim); err != nil {
		return nil, err
	}
	return &Forest{features: features, imp: imp, params: params, flat: ff}, nil
}

// parsePackSections walks the section table, bounds-checking every
// length against the remaining buffer before slicing, and returns the
// payloads keyed by tag. Order, completeness and uniqueness are enforced
// against packSections.
func parsePackSections(data []byte) (map[string][]byte, error) {
	if len(data) < 8 {
		return nil, ErrNotPacked
	}
	if string(data[:4]) != packMagic {
		return nil, ErrNotPacked
	}
	count := int(binary.LittleEndian.Uint32(data[4:]))
	if count != len(packSections) {
		return nil, fmt.Errorf("forest: SFF1 carries %d sections, want %d", count, len(packSections))
	}
	secs := make(map[string][]byte, count)
	off := 8
	for i := 0; i < count; i++ {
		if len(data)-off < 16 {
			return nil, errors.New("forest: section header truncated")
		}
		tag := string(data[off : off+4])
		if tag != packSections[i] {
			return nil, fmt.Errorf("forest: section %d is %q, want %q", i, tag, packSections[i])
		}
		n := binary.LittleEndian.Uint64(data[off+8:])
		off += 16
		if n > uint64(len(data)-off) {
			return nil, fmt.Errorf("forest: section %q claims %d bytes, only %d remain", tag, n, len(data)-off)
		}
		secs[tag] = data[off : off+int(n)]
		off += int(n)
		off = (off + 7) &^ 7
		if off > len(data) {
			return nil, errors.New("forest: section padding overruns buffer")
		}
	}
	return secs, nil
}

func readF64s(b []byte, tag string) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("forest: %s length %d is not a float64 multiple", tag, len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

func readI32s(b []byte, tag string) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("forest: %s length %d is not an int32 multiple", tag, len(b))
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

// validateFlat enforces the structural invariants the traversal kernels
// assume, so a corrupted blob cannot send them out of bounds or into an
// infinite self-chase:
//
//   - the four node arrays agree on length, roots and depth on tree count;
//   - roots are strictly increasing from 0 and trees tile the node space;
//   - within a tree, a node either self-loops (leaf) or points at a child
//     pair strictly after itself and inside the tree — "children after
//     parents" is what guarantees every walk terminates;
//   - split features index into the feature layout;
//   - every leaf carries exactly what newFlatForest writes, feature 0 and
//     threshold +Inf, because the batch kernel keeps stepping lanes that
//     reached a leaf and relies on both to stay put;
//   - per-tree depth equals the tree's longest root-to-leaf path, the
//     batch kernel's step count: a shorter one stops lanes above their
//     leaves;
//   - the stored prior matches the arrays.
//
// NaN thresholds on split nodes stay legal: the format round-trips any
// float64, and only the batch kernel's routing of them differs.
func validateFlat(ff *flatForest, dim int) error {
	n := len(ff.feature)
	if len(ff.threshold) != n || len(ff.kids) != n || len(ff.prob) != n {
		return errors.New("forest: node sections disagree on node count")
	}
	trees := len(ff.roots)
	if trees == 0 || n == 0 {
		return errors.New("forest: pack contains no trees")
	}
	if len(ff.depth) != trees {
		return errors.New("forest: ROOT and DPTH disagree on tree count")
	}
	// level[i] is the longest path from its tree's root to node i, or -1
	// while no parent has reached it. Children follow their parents, so
	// one forward pass settles every node before it is read.
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	for t := 0; t < trees; t++ {
		lo := int(ff.roots[t])
		hi := n
		if t+1 < trees {
			hi = int(ff.roots[t+1])
		}
		if t == 0 && lo != 0 {
			return errors.New("forest: first root is not node 0")
		}
		if lo >= hi || hi > n {
			return fmt.Errorf("forest: tree %d spans [%d,%d) of %d nodes", t, lo, hi, n)
		}
		level[lo] = 0
		depth := int32(0)
		for i := lo; i < hi; i++ {
			k := int(ff.kids[i])
			if k == i {
				if ff.feature[i] != 0 || !math.IsInf(ff.threshold[i], 1) {
					return fmt.Errorf("forest: leaf %d carries feature %d, threshold %v; want 0, +Inf", i, ff.feature[i], ff.threshold[i])
				}
				depth = max(depth, level[i])
				continue
			}
			// Children must follow their parent (termination) and the
			// adjacent pair must sit inside the tree's span.
			if k <= i || k+1 >= hi {
				return fmt.Errorf("forest: node %d child pair %d,%d escapes tree [%d,%d)", i, k, k+1, lo, hi)
			}
			if f := int(ff.feature[i]); f < 0 || f >= dim {
				return fmt.Errorf("forest: node %d splits on feature %d of %d", i, f, dim)
			}
			if l := level[i]; l >= 0 {
				level[k] = max(level[k], l+1)
				level[k+1] = max(level[k+1], l+1)
			}
		}
		if ff.depth[t] != depth {
			return fmt.Errorf("forest: tree %d stores depth %d, its longest path is %d", t, ff.depth[t], depth)
		}
	}
	var s float64
	for _, r := range ff.roots {
		s += ff.prob[r]
	}
	if want := s / float64(trees); math.Float64bits(want) != math.Float64bits(ff.prior) {
		return errors.New("forest: stored prior disagrees with root probabilities")
	}
	return nil
}
