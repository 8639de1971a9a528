package forest

import (
	"sort"

	"scouts/internal/ml/mlcore"
)

// This file retains the seed (pre-presort) tree-growing kernel verbatim.
// It exists for two reasons: the golden-equivalence tests prove that the
// presorted kernel in tree.go grows byte-identical forests, and the
// benchmarks report the presorted kernel's speedup against it from a
// single binary. It is selected via Params.ReferenceKernel and is not used
// on any production path.

// buildTreeReference grows a tree on the given sample indices of d using
// the per-node re-sorting kernel (O(mtry · n log n) per node).
func buildTreeReference(d *mlcore.Dataset, idx []int, p *treeParams) *tree {
	t := &tree{}
	t.growReference(d, idx, p, 0)
	return t
}

// growReference appends a subtree for idx and returns its root node index.
func (t *tree) growReference(d *mlcore.Dataset, idx []int, p *treeParams, depth int) int {
	var wSum, wPos float64
	for _, i := range idx {
		w := d.Samples[i].W()
		wSum += w
		if d.Samples[i].Y {
			wPos += w
		}
	}
	me := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: -1, prob: safeDiv(wPos, wSum)})

	if depth >= p.maxDepth || wSum <= p.minLeaf || wPos == 0 || wPos == wSum {
		return me
	}
	feat, thr, gain := bestSplitReference(d, idx, p, wSum, wPos)
	if feat < 0 || gain <= p.minImpurity {
		return me
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if d.Samples[i].X[feat] <= thr {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return me
	}
	if p.featImp != nil {
		p.featImp[feat] += gain * wSum
	}
	t.nodes[me].feature = feat
	t.nodes[me].threshold = thr
	l := t.growReference(d, leftIdx, p, depth+1)
	t.nodes[me].left = l
	r := t.growReference(d, rightIdx, p, depth+1)
	t.nodes[me].right = r
	return me
}

// bestSplitReference scans a random subset of features (mtry) and returns
// the split with the largest Gini gain, re-sorting the node's samples for
// every candidate feature.
func bestSplitReference(d *mlcore.Dataset, idx []int, p *treeParams, wSum, wPos float64) (feat int, thr, gain float64) {
	dim := d.Dim()
	mtry := p.mtry
	if mtry <= 0 || mtry > dim {
		mtry = dim
	}
	// Sample mtry distinct features by partial Fisher-Yates over a scratch
	// permutation.
	perm := make([]int, dim)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < mtry; i++ {
		j := i + p.rng.intn(dim-i)
		perm[i], perm[j] = perm[j], perm[i]
	}

	parentGini := gini(wPos, wSum)
	feat, gain = -1, 0

	type pair struct {
		v float64
		w float64
		y bool
	}
	pairs := make([]pair, 0, len(idx))
	for f := 0; f < mtry; f++ {
		fi := perm[f]
		pairs = pairs[:0]
		for _, i := range idx {
			s := d.Samples[i]
			pairs = append(pairs, pair{v: s.X[fi], w: s.W(), y: s.Y})
		}
		// The golden bit-identity tests pin this kernel's behavior, and with
		// non-uniform boosting weights the left-sum accumulation order of
		// equal-valued pairs feeds floating-point rounding — swapping the
		// sort algorithm could reorder ties and change the reference splits.
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v }) //scout:allow sortslice frozen reference kernel; tie order is pinned by the golden snapshot tests

		var lw, lp float64
		for k := 0; k < len(pairs)-1; k++ {
			lw += pairs[k].w
			if pairs[k].y {
				lp += pairs[k].w
			}
			if pairs[k].v == pairs[k+1].v {
				continue // cannot split between equal values
			}
			rw, rp := wSum-lw, wPos-lp
			if lw < p.minLeaf || rw < p.minLeaf {
				continue
			}
			g := parentGini - (lw/wSum)*gini(lp, lw) - (rw/wSum)*gini(rp, rw)
			if g > gain {
				gain = g
				feat = fi
				thr = (pairs[k].v + pairs[k+1].v) / 2
			}
		}
	}
	return feat, thr, gain
}
