// Package forest implements CART decision trees and random forests with
// weighted Gini splitting, bootstrap aggregation, mean-decrease-in-impurity
// feature importance, and per-prediction feature contributions following
// Palczewska et al. [57] — the explanation mechanism §8 of the paper calls
// "crucial" for operator acceptance.
//
// Random forests are the supervised model of the PhyNet Scout (§5.2.1): they
// learn the relationship between an incident's per-component telemetry
// statistics and whether the team is responsible, resist over-fitting, and
// can explain each routing decision.
package forest

import (
	"errors"
	"fmt"
	"log"
	"math"
	"slices"
	"sync"

	"scouts/internal/ml/mlcore"
	"scouts/internal/parallel"
)

// Params configure random-forest training.
type Params struct {
	// NumTrees is the ensemble size (default 100).
	NumTrees int
	// MaxDepth bounds tree depth (default 12).
	MaxDepth int
	// MinLeaf is the minimum total sample weight per leaf (default 2).
	MinLeaf float64
	// MTry is the number of features examined per split; 0 selects
	// round(sqrt(dim)), the standard classification heuristic.
	MTry int
	// Seed makes training deterministic.
	Seed int64
	// Bootstrap resamples the training set per tree when true (default).
	// DisableBootstrap turns it off (each tree sees all samples, useful in
	// tests that need exact reproducibility of a single tree).
	DisableBootstrap bool
	// Workers bounds the goroutines used to grow trees; 0 selects
	// runtime.GOMAXPROCS(0). Training output is bit-identical for every
	// worker count: per-tree seeds are pre-drawn in tree order and feature
	// importance is accumulated per tree, then merged in tree order. The
	// knob is deliberately excluded from snapshots — it describes the
	// training machine, not the model.
	Workers int `json:"-"`
	// ReferenceKernel selects the retained seed split-finding kernel
	// (per-node re-sorting) instead of the presorted-columns kernel. It
	// exists for the golden-equivalence tests and the kernel benchmarks
	// only — both kernels grow byte-identical forests — and, like Workers,
	// is excluded from snapshots.
	ReferenceKernel bool `json:"-"`
}

func (p Params) withDefaults() Params {
	if p.NumTrees <= 0 {
		p.NumTrees = 100
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 12
	}
	if p.MinLeaf <= 0 {
		p.MinLeaf = 2
	}
	return p
}

// Forest is a trained random-forest classifier.
type Forest struct {
	trees    []*tree
	features []string
	imp      []float64 // normalized mean decrease in impurity
	params   Params
	// flat is the inference-time flattened SoA view of trees, derived once
	// at Train (see flat.go) — or loaded directly, with
	// no derivation at all, from a binary pack (pack.go), in which case
	// trees stays nil and the forest is inference-only.
	flat *flatForest
}

// treeCount is the ensemble size for both representations: trained
// forests count their pointer trees; pack-loaded forests
// carry only the flat view and count its roots.
func (f *Forest) treeCount() int {
	if f.trees != nil {
		return len(f.trees)
	}
	if f.flat != nil {
		return len(f.flat.roots)
	}
	return 0
}

// logf reports the forest's defensive error paths (dimension-mismatched
// inputs). Swappable so tests can assert on — or silence — it.
var logf = log.Printf

// ErrEmptyTrainingSet is returned when Train is called with no samples.
var ErrEmptyTrainingSet = errors.New("forest: empty training set")

// Train grows a random forest on the dataset.
func Train(d *mlcore.Dataset, p Params) (*Forest, error) {
	if d.Len() == 0 {
		return nil, ErrEmptyTrainingSet
	}
	p = p.withDefaults()
	mtry := p.MTry
	if mtry <= 0 {
		mtry = int(math.Round(math.Sqrt(float64(d.Dim()))))
		if mtry < 1 {
			mtry = 1
		}
	}
	f := &Forest{
		features: d.Features,
		imp:      make([]float64, d.Dim()),
		params:   p,
	}
	// Pre-draw every per-tree seed in tree order. The seed stream depends
	// only on p.Seed, so the parallel schedule below cannot perturb it and
	// tree t is grown from the same generator state at any worker count.
	seedGen := newRNG(uint64(p.Seed))
	seeds := make([]uint64, p.NumTrees)
	for t := range seeds {
		seeds[t] = seedGen.next()
	}
	f.trees = make([]*tree, p.NumTrees)
	// Each tree accumulates importance privately; the merge below runs in
	// tree order so the floating-point sums are identical for every worker
	// count (float addition is not associative — a shared accumulator or
	// per-worker accumulators would make importances schedule-dependent).
	treeImp := make([][]float64, p.NumTrees)
	// The presorted kernel shares one read-only column-major presort across
	// all trees and pools the per-tree scratch across workers (a scratch is
	// fully overwritten by reset, so pool reuse order cannot leak state
	// between trees and determinism is preserved).
	var cols *mlcore.Columns
	var scratch sync.Pool
	if !p.ReferenceKernel {
		cols = mlcore.NewColumns(d, p.Workers)
		scratch.New = func() any { return newSplitCtx(cols) }
	}
	parallel.For(p.Workers, p.NumTrees, func(t int) {
		tp := &treeParams{
			maxDepth: p.MaxDepth,
			minLeaf:  p.MinLeaf,
			mtry:     mtry,
			featImp:  make([]float64, d.Dim()),
			rng:      newRNG(seeds[t]),
		}
		idx := make([]int, d.Len())
		if p.DisableBootstrap {
			for i := range idx {
				idx[i] = i
			}
		} else {
			for i := range idx {
				idx[i] = tp.rng.intn(d.Len())
			}
		}
		if p.ReferenceKernel {
			f.trees[t] = buildTreeReference(d, idx, tp)
		} else {
			ctx := scratch.Get().(*splitCtx)
			ctx.reset(idx)
			f.trees[t] = buildTree(ctx, tp)
			scratch.Put(ctx)
		}
		treeImp[t] = tp.featImp
	})
	for _, imp := range treeImp {
		for i, v := range imp {
			f.imp[i] += v
		}
	}
	// Normalize importance to sum to 1 (when any split happened).
	var total float64
	for _, v := range f.imp {
		total += v
	}
	if total > 0 {
		for i := range f.imp {
			f.imp[i] /= total
		}
	}
	f.flat = newFlatForest(f.trees)
	return f, nil
}

// Trainer returns an mlcore.Trainer that trains forests with the params.
func Trainer(p Params) mlcore.Trainer {
	return mlcore.TrainerFunc(func(d *mlcore.Dataset) (mlcore.Classifier, error) {
		return Train(d, p)
	})
}

// PredictProb returns the forest's positive-class probability for x,
// traversing the flat SoA kernel (flat.go). A vector of the wrong
// dimension answers the training prior with a logged error instead of
// panicking deep in traversal.
func (f *Forest) PredictProb(x []float64) float64 {
	if f.treeCount() == 0 {
		return 0
	}
	if len(x) != len(f.features) {
		logf("forest: dimension mismatch: got %d features, trained on %d; answering the training prior", len(x), len(f.features))
		return f.flat.prior
	}
	return f.flat.predictProb(x)
}

// PredictProbBatch scores every vector of xs with one tree-major pass over
// the flat kernel: each tree's node arrays stay cache-hot across the whole
// batch. Results are written into out when it has the capacity (the
// serving path passes a pooled buffer for a zero-allocation call) and the
// filled slice is returned. Every probability is bit-identical to the
// corresponding PredictProb call; dimension-mismatched batches fall back
// to the guarded per-vector path.
//
//scout:hotpath
func (f *Forest) PredictProbBatch(xs [][]float64, out []float64) []float64 {
	if cap(out) >= len(xs) {
		out = out[:len(xs)]
		for i := range out {
			out[i] = 0
		}
	} else {
		out = make([]float64, len(xs))
	}
	if f.treeCount() == 0 || len(xs) == 0 {
		return out
	}
	for _, x := range xs {
		if len(x) != len(f.features) {
			for i, x := range xs {
				out[i] = f.PredictProb(x)
			}
			return out
		}
	}
	f.flat.predictBatch(xs, out)
	return out
}

// Prior returns the forest's training prior: the mean root-node positive
// fraction across trees — the probability the forest answers when it
// cannot trust the input vector.
func (f *Forest) Prior() float64 {
	if f.flat == nil {
		return 0
	}
	return f.flat.prior
}

// PredictProbPointer is the retained pointer-tree traversal. It exists for
// the golden equivalence tests and the kernel benchmarks only — the flat
// kernel's PredictProb is bit-identical to it (see DESIGN.md §8).
func (f *Forest) PredictProbPointer(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0
	}
	s := 0.0
	for _, t := range f.trees {
		s += t.predict(x)
	}
	return s / float64(len(f.trees))
}

// Predict implements mlcore.Classifier: the label and a confidence in
// [0.5, 1] for that label.
func (f *Forest) Predict(x []float64) (bool, float64) {
	p := f.PredictProb(x)
	if p >= 0.5 {
		return true, p
	}
	return false, 1 - p
}

// Importance returns the normalized mean-decrease-in-impurity importance of
// every feature, aligned with Features().
func (f *Forest) Importance() []float64 {
	out := make([]float64, len(f.imp))
	copy(out, f.imp)
	return out
}

// Features returns the feature names the forest was trained on.
func (f *Forest) Features() []string { return f.features }

// Contribution is one feature's share of a prediction's deviation from the
// training prior, used to explain routing decisions to operators.
type Contribution struct {
	Feature string
	Value   float64 // signed contribution to the positive-class probability
}

// Explain decomposes the prediction for x as prior + sum(contributions)
// following Palczewska et al., traversing the flat SoA kernel. It returns
// the prior and the per-feature contributions sorted by decreasing
// absolute value. A dimension-mismatched vector answers the training prior
// with no contributions (and a logged error) instead of panicking.
func (f *Forest) Explain(x []float64) (prior float64, contribs []Contribution) {
	if f.treeCount() == 0 {
		return 0, nil
	}
	if len(x) != len(f.features) {
		logf("forest: dimension mismatch in Explain: got %d features, trained on %d; answering the training prior", len(x), len(f.features))
		return f.flat.prior, nil
	}
	raw := make([]float64, len(f.features))
	for _, r := range f.flat.roots {
		prior += f.flat.contributions(r, x, raw)
	}
	return f.finishExplain(prior, raw)
}

// ExplainPointer is Explain over the retained pointer-tree traversal,
// kept — like PredictProbPointer — for the golden equivalence tests and
// the kernel benchmarks only.
func (f *Forest) ExplainPointer(x []float64) (prior float64, contribs []Contribution) {
	if len(f.trees) == 0 {
		return 0, nil
	}
	raw := make([]float64, len(f.features))
	for _, t := range f.trees {
		prior += t.contributions(x, raw)
	}
	return f.finishExplain(prior, raw)
}

// finishExplain normalizes the accumulated prior and raw contributions and
// sorts them by decreasing absolute value — shared by both kernels so
// their outputs can only differ if the traversals themselves do.
func (f *Forest) finishExplain(prior float64, raw []float64) (float64, []Contribution) {
	count := float64(f.treeCount())
	prior /= count
	contribs := make([]Contribution, 0, len(raw))
	for i, v := range raw {
		v /= count
		if v != 0 {
			contribs = append(contribs, Contribution{Feature: f.features[i], Value: v})
		}
	}
	slices.SortFunc(contribs, func(a, b Contribution) int {
		av, bv := math.Abs(a.Value), math.Abs(b.Value)
		switch {
		case av > bv:
			return -1
		case bv > av:
			return 1
		default:
			return 0
		}
	})
	return prior, contribs
}

// NumTrees reports the ensemble size.
func (f *Forest) NumTrees() int { return f.treeCount() }

// NumNodes reports the total node count across the ensemble (0 before
// training); scoutctl inspect surfaces it when dumping pack files.
func (f *Forest) NumNodes() int {
	if f.flat == nil {
		return 0
	}
	return len(f.flat.feature)
}

// String summarizes the forest for logs.
func (f *Forest) String() string {
	return fmt.Sprintf("RandomForest(trees=%d, dim=%d)", f.treeCount(), len(f.features))
}
