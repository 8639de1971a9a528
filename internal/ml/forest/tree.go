package forest

import (
	"scouts/internal/ml/mlcore"
)

// node is one node of a CART tree. Leaves have feature == -1.
type node struct {
	feature     int     // split feature index, -1 for leaf
	threshold   float64 // go left when x[feature] <= threshold
	left, right int     // child indices into tree.nodes
	prob        float64 // weighted fraction of positive samples reaching here
}

// tree is a CART classification tree trained with weighted Gini impurity.
type tree struct {
	nodes []node
}

type treeParams struct {
	maxDepth    int
	minLeaf     float64 // minimum total weight in a leaf
	mtry        int     // features considered per split; <=0 means all
	featImp     []float64
	rng         *rng
	minImpurity float64
}

// rng is a tiny splitmix64 generator. The forest trains trees in parallel
// in principle; keeping a local generator per tree avoids math/rand lock
// contention and keeps training fully deterministic given the seed.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed ^ 0x9E3779B97F4A7C15} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// splitCtx is the per-tree working state of the presorted split kernel.
// All buffers are sized once per (tree, dataset) and reused for every node,
// so bestSplit and the node partition run with zero allocations. A splitCtx
// is reset per tree and may be pooled across trees: reset overwrites every
// cell the kernel later reads.
//
// The kernel maintains, for the node currently being grown, the classic
// presorted-columns invariant: sorted[f*n:(f+1)*n] holds the tree's sample
// rows arranged so that each node's range [lo, hi) is sorted ascending by
// feature f (ties in base-order position), and idx[lo:hi] holds the same
// rows in insertion order — the exact order the reference kernel's
// leftIdx/rightIdx slices would carry, which keeps every weight-sum
// accumulation bit-identical to it.
type splitCtx struct {
	cols    *mlcore.Columns
	w       []float64 // cols.Weights()
	y       []bool    // cols.Labels()
	uniform bool      // cols.Uniform(): integer counting replaces weight sums
	n       int       // rows per tree (== dataset length; bootstrap resamples)

	sorted []int32 // dim*n flat presorted rows, feature f at [f*n, (f+1)*n)
	idx    []int32 // node rows in insertion order
	tmp    []int32 // spill buffer for the stable partitions
	counts []int32 // per-dataset-row multiplicity scratch (zeroed after use)
	side   []uint8 // per-dataset-row split side of the current node (1=left)
	perm   []int   // feature-sampling scratch
}

func newSplitCtx(cols *mlcore.Columns) *splitCtx {
	dim, n := cols.Dim(), cols.Len()
	return &splitCtx{
		cols:    cols,
		w:       cols.Weights(),
		y:       cols.Labels(),
		uniform: cols.Uniform(),
		n:       n,
		sorted:  make([]int32, dim*n+1), // +1: reset's expansion may overhang one slot
		idx:     make([]int32, n),
		tmp:     make([]int32, n),
		counts:  make([]int32, n),
		side:    make([]uint8, n),
		perm:    make([]int, dim),
	}
}

// rows returns feature f's presorted row arrangement.
func (c *splitCtx) rows(f int) []int32 {
	return c.sorted[f*c.n : (f+1)*c.n]
}

// reset loads one tree's sample multiset (the bootstrap draw) into the
// context: idx keeps the draw order, and every feature's presorted
// arrangement is rebuilt in O(dim · n) by expanding the shared base order
// with the draw multiplicities (duplicates share a value, so they stay
// adjacent and the arrangement stays sorted).
func (c *splitCtx) reset(idx []int) {
	for i, row := range idx {
		c.idx[i] = int32(row)
		c.counts[row]++
	}
	for f := 0; f < c.cols.Dim(); f++ {
		// One slot beyond the feature's range: the unconditional write
		// below may overhang by one, into a cell the next feature's own
		// expansion rewrites (sorted carries a spare slot for the last).
		dst := c.sorted[f*c.n : (f+1)*c.n+1]
		pos := 0
		for _, row := range c.cols.Order(f) {
			// Write once unconditionally and advance by the multiplicity:
			// counts of 0 and 1 (three quarters of a bootstrap draw) take
			// no data-dependent branch at all.
			n := int(c.counts[row])
			dst[pos] = row
			if n > 1 {
				for k := 1; k < n; k++ {
					dst[pos+k] = row
				}
			}
			pos += n
		}
	}
	for _, row := range idx {
		c.counts[row] = 0
	}
}

// buildTree grows a tree over the sample rows loaded into ctx.
func buildTree(ctx *splitCtx, p *treeParams) *tree {
	t := &tree{}
	wSum, wPos := ctx.nodeSums(0, ctx.n)
	t.grow(ctx, p, 0, ctx.n, 0, wSum, wPos)
	return t
}

// nodeSums accumulates total and positive weight over idx[lo:hi] in
// insertion order — the reference kernel's loop exactly. With uniform
// weights it counts instead: float64 sums of 1.0 are exact integers far
// beyond any dataset size, so the counting path is bit-identical to the
// accumulating one.
func (c *splitCtx) nodeSums(lo, hi int) (wSum, wPos float64) {
	if c.uniform {
		pos := 0
		for _, row := range c.idx[lo:hi] {
			if c.y[row] {
				pos++
			}
		}
		return float64(hi - lo), float64(pos)
	}
	for _, row := range c.idx[lo:hi] {
		w := c.w[row]
		wSum += w
		if c.y[row] {
			wPos += w
		}
	}
	return wSum, wPos
}

// isLeaf mirrors grow's stopping rule so a parent can tell whether a child
// will even attempt a split.
func isLeaf(p *treeParams, depth int, wSum, wPos float64) bool {
	return depth >= p.maxDepth || wSum <= p.minLeaf || wPos == 0 || wPos == wSum
}

// grow appends a subtree for the node range [lo, hi) — whose weight sums
// the caller already accumulated — and returns its root node index.
func (t *tree) grow(ctx *splitCtx, p *treeParams, lo, hi, depth int, wSum, wPos float64) int {
	me := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: -1, prob: safeDiv(wPos, wSum)})

	if isLeaf(p, depth, wSum, wPos) {
		return me
	}
	feat, thr, gain := bestSplit(ctx, p, lo, hi, wSum, wPos)
	if feat < 0 || gain <= p.minImpurity {
		return me
	}
	mid := ctx.partitionIdx(lo, hi, feat, thr)
	if mid == lo || mid == hi {
		return me
	}
	// The children's sums decide whether they can split at all. A certain
	// leaf's presorted feature ranges will never be read, so the per-feature
	// partition only produces the sides that a splittable child will scan:
	// nothing when both children are leaves, a one-sided compaction when one
	// is, and the full stable partition only when both will split.
	lSum, lPos := ctx.nodeSums(lo, mid)
	rSum, rPos := ctx.nodeSums(mid, hi)
	needL := !isLeaf(p, depth+1, lSum, lPos)
	needR := !isLeaf(p, depth+1, rSum, rPos)
	if needL || needR {
		ctx.partitionFeatures(lo, hi, mid, needL, needR)
	}
	if p.featImp != nil {
		p.featImp[feat] += gain * wSum
	}
	t.nodes[me].feature = feat
	t.nodes[me].threshold = thr
	l := t.grow(ctx, p, lo, mid, depth+1, lSum, lPos)
	t.nodes[me].left = l
	r := t.grow(ctx, p, mid, hi, depth+1, rSum, rPos)
	t.nodes[me].right = r
	return me
}

// bestSplit scans a random subset of features (mtry) and returns the split
// with the largest Gini gain. Each candidate feature is scanned in
// presorted order — no sorting, no allocation — so the node costs
// O(mtry · n) instead of O(mtry · n log n). The scan replays the reference
// kernel's arithmetic exactly: the same ascending-value visit order, the
// same equal-value-run skip, the same gain expression, and the same
// strictly-greater tie-break, so both kernels pick identical splits (see
// DESIGN.md §7 for the tie-handling argument).
//
//scout:hotpath
func bestSplit(ctx *splitCtx, p *treeParams, lo, hi int, wSum, wPos float64) (feat int, thr, gain float64) {
	dim := ctx.cols.Dim()
	mtry := p.mtry
	if mtry <= 0 || mtry > dim {
		mtry = dim
	}
	// Sample mtry distinct features by partial Fisher-Yates over the scratch
	// permutation (same rng consumption as the reference kernel).
	perm := ctx.perm
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < mtry; i++ {
		j := i + p.rng.intn(dim-i)
		perm[i], perm[j] = perm[j], perm[i]
	}

	parentGini := gini(wPos, wSum)
	feat, gain = -1, 0

	for f := 0; f < mtry; f++ {
		fi := perm[f]
		col := ctx.cols.Col(fi)
		ord := ctx.rows(fi)[lo:hi]
		if ctx.uniform {
			// Counting fast path: lw/lp are exact integers either way (see
			// nodeSums), so the gains match the accumulating loop bit for
			// bit while skipping the weight loads.
			lc, lpc := 0, 0
			for k := 0; k < len(ord)-1; k++ {
				row := ord[k]
				lc++
				if ctx.y[row] {
					lpc++
				}
				v, next := col[row], col[ord[k+1]]
				if v == next {
					continue // cannot split between equal values
				}
				lw, lp := float64(lc), float64(lpc)
				rw, rp := wSum-lw, wPos-lp
				if lw < p.minLeaf || rw < p.minLeaf {
					continue
				}
				g := parentGini - (lw/wSum)*gini(lp, lw) - (rw/wSum)*gini(rp, rw)
				if g > gain {
					gain = g
					feat = fi
					thr = (v + next) / 2
				}
			}
			continue
		}
		var lw, lp float64
		for k := 0; k < len(ord)-1; k++ {
			row := ord[k]
			w := ctx.w[row]
			lw += w
			if ctx.y[row] {
				lp += w
			}
			v, next := col[row], col[ord[k+1]]
			if v == next {
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
				thr = (v + next) / 2
			}
		}
	}
	return feat, thr, gain
}

// partitionIdx marks every row of the node [lo, hi) with its split side
// and stably partitions idx, returning the first index of the right child.
// Stability makes the children's idx order match the reference kernel's
// filtered leftIdx/rightIdx order. The side marks stay valid for a
// subsequent partitionFeatures over the same node.
func (c *splitCtx) partitionIdx(lo, hi, feat int, thr float64) int {
	col := c.cols.Col(feat)
	for _, row := range c.idx[lo:hi] {
		if col[row] <= thr {
			c.side[row] = 1
		} else {
			c.side[row] = 0
		}
	}
	return lo + c.stablePartition(c.idx[lo:hi])
}

// partitionFeatures partitions the node range [lo, hi) of every feature's
// presorted arrangement by the side marks partitionIdx left behind, with
// mid the first right-child index. Stability keeps each child's
// arrangement sorted. When only one child will ever scan its range
// (needL/needR), the other side's cells are left as garbage and the
// partition degenerates to a one-sided compaction with no spill buffer.
func (c *splitCtx) partitionFeatures(lo, hi, mid int, needL, needR bool) {
	for f := 0; f < c.cols.Dim(); f++ {
		seg := c.rows(f)[lo:hi]
		switch {
		case needL && needR:
			c.stablePartition(seg)
		case needL:
			c.compactLeft(seg)
		default:
			c.compactRight(seg, mid-lo)
		}
	}
}

// compactLeft moves rows marked side=1 to the front of seg in order,
// leaving the tail unspecified. The write cursor never passes the read
// cursor, so the move is in place.
func (c *splitCtx) compactLeft(seg []int32) {
	w := 0
	for _, row := range seg {
		seg[w] = row
		w += int(c.side[row])
	}
}

// compactRight moves rows marked side=0 to seg[mid:] in order, leaving the
// front unspecified. It scans backward with a speculative write at w-1
// that only "commits" when the decrement lands on a right row — the same
// branchless shape as compactLeft, mirrored. In place: w >= r+1 throughout,
// so writes never touch an unread cell; and w never drops below mid >= 1
// (the caller guarantees a non-empty left child), so w-1 stays in range.
func (c *splitCtx) compactRight(seg []int32, mid int) {
	w := len(seg)
	for r := len(seg) - 1; r >= 0; r-- {
		row := seg[r]
		seg[w-1] = row
		w -= 1 - int(c.side[row])
	}
}

// stablePartition compacts rows marked side=1 to the front of seg in
// order, spills the rest to the tmp buffer, copies them back after, and
// returns the left count. Both cursors advance unconditionally — the byte
// lookup replaces a data-dependent branch the CPU cannot predict on a
// ~50/50 split.
func (c *splitCtx) stablePartition(seg []int32) int {
	tmp := c.tmp
	w, s := 0, 0
	for _, row := range seg {
		left := int(c.side[row])
		seg[w] = row
		tmp[s] = row
		w += left
		s += 1 - left
	}
	copy(seg[w:], tmp[:s])
	return w
}

func gini(pos, total float64) float64 {
	if total <= 0 {
		return 0
	}
	p := pos / total
	return 2 * p * (1 - p)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// predict returns the positive-class probability at the leaf x lands in.
func (t *tree) predict(x []float64) float64 {
	n := 0
	for {
		nd := t.nodes[n]
		if nd.feature < 0 {
			return nd.prob
		}
		if x[nd.feature] <= nd.threshold {
			n = nd.left
		} else {
			n = nd.right
		}
	}
}

// contributions implements the feature-contribution decomposition of
// Palczewska et al. ("Interpreting random forest models using a feature
// contribution method", 2013): prediction = root prior + sum over path of
// (child mean - parent mean), attributed to the split feature. It adds the
// per-feature contributions for x into out and returns the root prior.
func (t *tree) contributions(x []float64, out []float64) float64 {
	n := 0
	prior := t.nodes[0].prob
	for {
		nd := t.nodes[n]
		if nd.feature < 0 {
			return prior
		}
		var next int
		if x[nd.feature] <= nd.threshold {
			next = nd.left
		} else {
			next = nd.right
		}
		out[nd.feature] += t.nodes[next].prob - nd.prob
		n = next
	}
}

// depth returns the maximum depth of the tree (root = 0). Used in tests.
func (t *tree) depth() int {
	var walk func(n, d int) int
	walk = func(n, d int) int {
		nd := t.nodes[n]
		if nd.feature < 0 {
			return d
		}
		return max(walk(nd.left, d+1), walk(nd.right, d+1))
	}
	if len(t.nodes) == 0 {
		return 0
	}
	return walk(0, 0)
}
