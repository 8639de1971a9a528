package forest

import (
	"math"
	"sync/atomic"
)

// flatForest is the inference-time representation of a trained forest: the
// pointer-addressed per-tree node slices flattened into one contiguous
// structure-of-arrays layout. The pointer trees remain the training
// representation; the flat view is derived from them once, at Train, and
// it is what the SFF1 binary snapshot (pack.go) writes and loads.
//
// Why SoA: at prediction time a traversal step reads exactly one feature
// index, one threshold and one child index, and the probability only at
// the leaf. The 40-byte AoS node drags all of that through the cache per
// step; parallel arrays touch only the bytes the step uses, int32 indices
// halve them again, and concatenating every tree removes the per-tree
// slice-header indirection.
//
// Node order within a tree is breadth-first with the two children of every
// split allocated adjacently, so a single child index describes both:
// left = kids[n], right = kids[n]+1. A traversal step then needs no
// branch — it adds the comparison outcome to the child base — which is
// what makes the batch kernel fast: random-forest splits are ~50/50 coin
// flips, and a branchy step pays a pipeline flush on half of them.
// Leaves self-loop (kids[n] == n, threshold +Inf), so stepping a finished
// traversal is a harmless no-op; the batch kernel exploits that to run
// every lane for the tree's full depth with no per-lane "done" check.
//
// Determinism: the flat arrays hold bit-copies of the pointer nodes'
// values and every traversal visits the same splits in the same order, so
// each tree's answer — and each float64 accumulation order across trees —
// is identical to the pointer kernel's, float for float (DESIGN.md §8).
type flatForest struct {
	feature   []int32   // split feature per node (0 for leaf: a harmless load)
	threshold []float64 // go left when x[feature] <= threshold; +Inf for leaf
	kids      []int32   // absolute left-child index; right is kids+1; self for leaf
	prob      []float64 // weighted positive fraction at the node

	roots []int32 // node index of each tree's root (trees are contiguous)
	depth []int32 // per-tree max depth: the fixed step count of the batch kernel
	prior float64 // mean root probability: the training prior, the
	// forest's answer when it cannot trust the input vector
}

// flatDerivations counts newFlatForest calls. It exists for the
// derivation-count guard tests (Train derives the flat view exactly once
// per forest; a binary pack load derives it zero times) and has no other
// consumers.
var flatDerivations atomic.Int64

// FlatDerivations reports how many pointer-tree flattenings have run in
// this process — a test hook for the load-path derivation-count guards.
func FlatDerivations() int64 { return flatDerivations.Load() }

// newFlatForest flattens the trained pointer trees, re-ordering each
// tree's nodes breadth-first so sibling pairs are adjacent. Child indices
// are rebased from per-tree to forest-wide, which costs one add at build
// time and none at traversal time.
func newFlatForest(trees []*tree) *flatForest {
	flatDerivations.Add(1)
	total := 0
	for _, t := range trees {
		total += len(t.nodes)
	}
	ff := &flatForest{
		feature:   make([]int32, total),
		threshold: make([]float64, total),
		kids:      make([]int32, total),
		prob:      make([]float64, total),
		roots:     make([]int32, len(trees)),
		depth:     make([]int32, len(trees)),
	}
	base := int32(0)
	for t, tr := range trees {
		ff.roots[t] = base
		// Breadth-first renumbering: when a split is visited its children
		// get the next two flat slots, so the pair is always adjacent.
		order := make([]int32, len(tr.nodes)) // old index -> flat index
		queue := make([]int32, 1, len(tr.nodes))
		order[0] = base // grow appends the root first
		next := base + 1
		for qi := 0; qi < len(queue); qi++ {
			old := queue[qi]
			n := &tr.nodes[old]
			j := order[old]
			ff.prob[j] = n.prob
			if n.feature < 0 {
				ff.feature[j] = 0
				ff.threshold[j] = math.Inf(1)
				ff.kids[j] = j
				continue
			}
			ff.feature[j] = int32(n.feature)
			ff.threshold[j] = n.threshold
			ff.kids[j] = next
			order[n.left], order[n.right] = next, next+1
			next += 2
			queue = append(queue, int32(n.left), int32(n.right))
		}
		ff.depth[t] = int32(treeDepth(tr.nodes, 0))
		base += int32(len(tr.nodes))
	}
	if len(trees) > 0 {
		s := 0.0
		for _, r := range ff.roots {
			s += ff.prob[r]
		}
		ff.prior = s / float64(len(trees))
	}
	return ff
}

// treeDepth returns the longest root-to-leaf edge count of a pointer tree.
func treeDepth(nodes []node, i int) int {
	n := &nodes[i]
	if n.feature < 0 {
		return 0
	}
	l := treeDepth(nodes, n.left)
	if r := treeDepth(nodes, n.right); r > l {
		l = r
	}
	return l + 1
}

// predictTree walks one tree (by root node index) to its leaf probability.
// The comparison is written as !(x <= t) so a NaN feature value goes right,
// exactly as the pointer kernel's if/else does.
func (ff *flatForest) predictTree(root int32, x []float64) float64 {
	feature, threshold, kids := ff.feature, ff.threshold, ff.kids
	n := root
	for {
		k := kids[n]
		if k == n {
			return ff.prob[n]
		}
		if !(x[feature[n]] <= threshold[n]) {
			k++
		}
		n = k
	}
}

// predictProb averages the leaf probabilities in tree order — the same
// accumulation order as the pointer kernel, so the sum is bit-identical.
func (ff *flatForest) predictProb(x []float64) float64 {
	s := 0.0
	for _, r := range ff.roots {
		s += ff.predictTree(r, x)
	}
	return s / float64(len(ff.roots))
}

// predictBatch accumulates leaf probabilities for every vector of xs into
// out (which the caller sized and zeroed), then divides by the tree count.
//
// The kernel takes vectors eight at a time and walks all eight traversals
// through each tree in lock-step for the tree's full depth. The
// chains are independent, so the out-of-order core overlaps their
// pointer-chase latencies instead of serializing one traversal at a time —
// that, plus the branch-free step the adjacent-sibling layout allows, is
// where the batch speedup over the single-vector kernels comes from.
// Lanes that reach a leaf early self-loop until the depth counter runs
// out (see flatForest).
//
// Per vector the additions still happen in tree order — out[i] collects
// tree 0, then tree 1, ... — so every batch probability is bit-identical
// to the corresponding predictProb call. The lock-step comparison x > t
// assumes non-NaN input (a NaN would escape a leaf's self-loop); vectors
// containing NaN take the single-vector kernel, which routes NaN right
// exactly as the pointer kernel does.
//
//scout:hotpath
func (ff *flatForest) predictBatch(xs [][]float64, out []float64) {
	feature, threshold, kids, prob := ff.feature, ff.threshold, ff.kids, ff.prob
	i := 0
	for ; i+8 <= len(xs); i += 8 {
		x0, x1, x2, x3 := xs[i], xs[i+1], xs[i+2], xs[i+3]
		x4, x5, x6, x7 := xs[i+4], xs[i+5], xs[i+6], xs[i+7]
		if hasNaN(x0) || hasNaN(x1) || hasNaN(x2) || hasNaN(x3) ||
			hasNaN(x4) || hasNaN(x5) || hasNaN(x6) || hasNaN(x7) {
			for j := i; j < i+8; j++ {
				for _, r := range ff.roots {
					out[j] += ff.predictTree(r, xs[j])
				}
			}
			continue
		}
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for t, r := range ff.roots {
			n0, n1, n2, n3 := r, r, r, r
			n4, n5, n6, n7 := r, r, r, r
			for d := ff.depth[t]; d > 0; d-- {
				var b0, b1, b2, b3, b4, b5, b6, b7 int32
				if x0[feature[n0]] > threshold[n0] {
					b0 = 1
				}
				if x1[feature[n1]] > threshold[n1] {
					b1 = 1
				}
				if x2[feature[n2]] > threshold[n2] {
					b2 = 1
				}
				if x3[feature[n3]] > threshold[n3] {
					b3 = 1
				}
				if x4[feature[n4]] > threshold[n4] {
					b4 = 1
				}
				if x5[feature[n5]] > threshold[n5] {
					b5 = 1
				}
				if x6[feature[n6]] > threshold[n6] {
					b6 = 1
				}
				if x7[feature[n7]] > threshold[n7] {
					b7 = 1
				}
				n0 = kids[n0] + b0
				n1 = kids[n1] + b1
				n2 = kids[n2] + b2
				n3 = kids[n3] + b3
				n4 = kids[n4] + b4
				n5 = kids[n5] + b5
				n6 = kids[n6] + b6
				n7 = kids[n7] + b7
			}
			s0 += prob[n0]
			s1 += prob[n1]
			s2 += prob[n2]
			s3 += prob[n3]
			s4 += prob[n4]
			s5 += prob[n5]
			s6 += prob[n6]
			s7 += prob[n7]
		}
		out[i] += s0
		out[i+1] += s1
		out[i+2] += s2
		out[i+3] += s3
		out[i+4] += s4
		out[i+5] += s5
		out[i+6] += s6
		out[i+7] += s7
	}
	for ; i < len(xs); i++ {
		for _, r := range ff.roots {
			out[i] += ff.predictTree(r, xs[i])
		}
	}
	count := float64(len(ff.roots))
	for j := range out {
		out[j] /= count
	}
}

func hasNaN(x []float64) bool {
	for _, v := range x {
		if v != v {
			return true
		}
	}
	return false
}

// contributions adds tree t's Palczewska feature-contribution
// decomposition for x into out and returns the tree's root prior —
// node-for-node the arithmetic of the pointer kernel's
// tree.contributions.
func (ff *flatForest) contributions(root int32, x []float64, out []float64) float64 {
	prior := ff.prob[root]
	n := root
	for {
		k := ff.kids[n]
		if k == n {
			return prior
		}
		f := ff.feature[n]
		if !(x[f] <= ff.threshold[n]) {
			k++
		}
		out[f] += ff.prob[k] - ff.prob[n]
		n = k
	}
}
