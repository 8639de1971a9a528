// Package cpd implements nonparametric change-point detection and the
// paper's CPD+ extension (§5.2.2).
//
// The base detector follows the energy-statistic approach of Matteson and
// James ("A nonparametric approach for multiple change point analysis of
// multivariate data", JASA 2014, [51] in the paper): a candidate split of a
// series into two segments is scored with the two-sample energy statistic,
// the best split is tested for significance with a permutation test, and
// detection recurses on both halves (binary segmentation).
//
// CPD+ extends the detector for incident routing: it handles EVENT data
// (which has no distribution to shift), learns — with a small random
// forest — which combinations of change points actually indicate failures
// when a whole cluster is implicated, and falls back to a conservative
// any-signal rule when the incident names only a handful of devices.
package cpd

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
)

// Params configure the change-point detector.
type Params struct {
	// MinSegment is the minimum number of points on each side of a change
	// point (default 5).
	MinSegment int
	// Permutations is the number of permutations in the significance test
	// (default 99).
	Permutations int
	// Alpha is the significance level (default 0.05).
	Alpha float64
	// MaxPoints bounds how many change points are reported (default 8).
	MaxPoints int
	// Seed drives the permutation test.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.MinSegment <= 0 {
		p.MinSegment = 5
	}
	if p.Permutations <= 0 {
		p.Permutations = 99
	}
	if p.Alpha <= 0 {
		p.Alpha = 0.05
	}
	if p.MaxPoints <= 0 {
		p.MaxPoints = 8
	}
	return p
}

// Detect returns the indices of statistically significant change points in
// the series, sorted ascending. An index i means the distribution of
// series[:i] differs from series[i:].
func Detect(series []float64, p Params) []int {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5bd1e995))
	var out []int
	w := newScanner(len(series))
	w.segment(series, 0, p, rng, &out)
	sort.Ints(out)
	if len(out) > p.MaxPoints {
		out = out[:p.MaxPoints]
	}
	return out
}

// HasChange reports whether the series contains at least one significant
// change point. It short-circuits after the first detection.
func HasChange(series []float64, p Params) bool {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5bd1e995))
	w := newScanner(len(series))
	w.load(series)
	idx, stat := w.bestSplit(p.MinSegment)
	if idx < 0 {
		return false
	}
	return w.significant(stat, p, rng)
}

// scanner scores every candidate split of one segment with the scaled
// energy statistic, for the segment itself and for its permutations.
//
// The segment is sorted once (load); a value is then known by its rank,
// its index in that order. A scan walks the splits left to right and keeps
// the ranks on each side in ascending order, so each side's values are
// read off the one sorted array already sorted; moving to the next split
// moves one rank across, an O(n) shift. A permutation only moves values
// between positions, so the permutation test reshuffles ranks and never
// re-sorts. One scanner serves every segment of a Detect call: segments
// only shrink, and a segment's scratch is dead before its halves load.
type scanner struct {
	// val holds the segment's values in sort.Float64s order (NaN first,
	// ties by position). lt[r] is the rank of the first value equal to
	// val[r], i.e. the number of values ordered strictly before it.
	val []float64
	lt  []int32
	// at[p] is the rank of the value at position p of the series being
	// scanned: the segment itself after load, a shuffled copy during the
	// permutation test.
	at []int32
	// left and right hold the ranks on each side of the current split,
	// ascending; prefix holds the prefix sums of the right side's values.
	left, right []int32
	prefix      []float64
}

func newScanner(n int) *scanner {
	fs := make([]float64, 2*n+1)
	is := make([]int32, 4*n)
	return &scanner{
		val: fs[:n:n], prefix: fs[n:],
		lt: is[:n:n], at: is[n : 2*n : 2*n], left: is[2*n : 3*n : 3*n], right: is[3*n:],
	}
}

func (w *scanner) segment(series []float64, offset int, p Params, rng *rand.Rand, out *[]int) {
	if len(*out) >= p.MaxPoints || len(series) < 2*p.MinSegment {
		return
	}
	w.load(series)
	idx, stat := w.bestSplit(p.MinSegment)
	if idx < 0 || !w.significant(stat, p, rng) {
		return
	}
	*out = append(*out, offset+idx)
	w.segment(series[:idx], offset, p, rng, out)
	w.segment(series[idx:], offset+idx, p, rng, out)
}

// load sorts a segment into the scanner, positions unshuffled.
//
//scout:hotpath
func (w *scanner) load(seg []float64) {
	n := len(seg)
	w.val, w.lt, w.at = w.val[:n], w.lt[:n], w.at[:n]
	ord := w.right[:n] // scratch until the first scan
	for p := range ord {
		ord[p] = int32(p)
	}
	// cmp.Compare orders floats as sort.Float64s does: NaN first, -0 == +0.
	slices.SortStableFunc(ord, func(a, b int32) int { return cmp.Compare(seg[a], seg[b]) })
	for r, p := range ord {
		w.val[r] = seg[p]
		w.at[p] = int32(r)
		if r > 0 && cmp.Compare(w.val[r-1], w.val[r]) == 0 {
			w.lt[r] = w.lt[r-1]
		} else {
			w.lt[r] = int32(r)
		}
	}
}

// bestSplit finds the split index maximizing the scaled energy statistic
// of the loaded segment. Returns (-1, 0) when the segment is too short.
//
// A scan costs O(n^2) with no allocation: each split shifts one rank
// across (cross) and sums both sides in O(n) (splitStat), and the
// permutation test repeats the scan per permutation without re-sorting.
// The statistic is exact, not approximate. splitStat performs the float
// operations of sorting both sides at every split — V-statistic sums over
// each sorted side, prefix sums of the sorted right side, a cross term per
// left value — in the same order on the same values, so the index and the
// statistic's bits equal that evaluation's. Only values that compare equal
// can come in another order: -0 and +0, which no sum here tells apart (a
// running sum from +0 is never -0, and adding either zero leaves it
// unchanged), and NaNs, which make every split's statistic NaN, so none
// wins.
//
//scout:hotpath
func (w *scanner) bestSplit(minSeg int) (int, float64) {
	n := len(w.val)
	if n < 2*minSeg {
		return -1, 0
	}
	w.start(minSeg)
	best, bestStat := -1, 0.0
	for i := minSeg; i <= n-minSeg; i++ {
		w.cross(i - 1)
		q := w.splitStat()
		if q > bestStat {
			best, bestStat = i, q
		}
	}
	return best, bestStat
}

// reaches reports whether bestSplit's statistic would be >= observed
// (> 0): that holds iff some split's statistic is, so the scan stops at
// the first one.
//
//scout:hotpath
func (w *scanner) reaches(minSeg int, observed float64) bool {
	n := len(w.val)
	w.start(minSeg)
	for i := minSeg; i <= n-minSeg; i++ {
		w.cross(i - 1)
		if w.splitStat() >= observed {
			return true
		}
	}
	return false
}

// start sets up a scan: every rank on the right except those at the first
// minSeg-1 positions, so that one cross reaches split minSeg.
//
//scout:hotpath
func (w *scanner) start(minSeg int) {
	w.left, w.right = w.left[:0], w.right[:len(w.val)]
	for r := range w.right {
		w.right[r] = int32(r)
	}
	for p := 0; p < minSeg-1; p++ {
		w.cross(p)
	}
}

// cross moves the value at position p from the right side to the left.
// The ranks below r on the right are those below r not on the left, so
// one search places r on both sides.
//
//scout:hotpath
func (w *scanner) cross(p int) {
	r := w.at[p]
	j, _ := slices.BinarySearch(w.left, r)
	k := int(r) - j
	copy(w.right[k:], w.right[k+1:])
	w.right = w.right[:len(w.right)-1]
	w.left = w.left[:len(w.left)+1]
	copy(w.left[j+1:], w.left[j:])
	w.left[j] = r
}

// splitStat computes the scaled two-sample energy statistic
// Q = nm/(n+m) * (2*E|X-Y| - E|X-X'| - E|Y-Y'|) of the current split, x on
// the left and y on the right.
//
// E|X-X'| is the V-statistic (1/n^2) * sum_{a,b} |x_a - x_b|; for sorted x,
// sum_{a<b} (x_b - x_a) = sum_a x_a * (2a - n + 1). E|X-Y| sums, for each
// x, its distance to every y via the prefix sums of sorted y and k, the
// number of y below x: the values below x number lt of x's rank, and the
// left-side ones among them are the left ranks before x's tie group. The
// explicit float64 conversions keep every product rounded on its own
// (never fused into a multiply-add), so the result does not depend on the
// target architecture.
//
//scout:hotpath
func (w *scanner) splitStat() float64 {
	val, lt, prefix := w.val, w.lt, w.prefix
	n, m := len(w.left), len(w.right)
	sumY, total := 0.0, 0.0
	prefix[0] = 0
	for b, r := range w.right {
		v := val[r]
		sumY += float64(float64(2*b-m+1) * v)
		total += v
		prefix[b+1] = total
	}
	sumX, sum := 0.0, 0.0
	group, below := int32(-1), int32(0)
	for a, r := range w.left {
		xv := val[r]
		sumX += float64(float64(2*a-n+1) * xv)
		if lt[r] != group {
			group, below = lt[r], int32(a)
		}
		k := int(group - below)
		// y values below xv contribute xv - y; above contribute y - xv.
		sum += float64(xv*float64(k)) - prefix[k]
		sum += (total - prefix[k]) - float64(xv*float64(m-k))
	}
	// Each within sum counts an unordered pair once; the V-statistic
	// counts ordered pairs, so multiply by 2 and divide by n^2.
	exx, eyy := 0.0, 0.0
	if n >= 2 {
		exx = 2 * sumX / (float64(n) * float64(n))
	}
	if m >= 2 {
		eyy = 2 * sumY / (float64(m) * float64(m))
	}
	exy := sum / float64(n*m)
	e := float64(2*exy) - exx - eyy
	return float64(n) * float64(m) / float64(n+m) * e
}

// significant runs a permutation test: the observed statistic is compared
// with the best-split statistic of shuffled copies of the loaded segment.
// The copies are shuffled cumulatively from the segment itself, drawing
// from rng exactly as shuffling the values would.
//
//scout:hotpath
func (w *scanner) significant(observed float64, p Params, rng *rand.Rand) bool {
	if observed <= 0 {
		return false
	}
	at := w.at
	geq := 0
	for i := 0; i < p.Permutations; i++ {
		rng.Shuffle(len(at), func(a, b int) {
			at[a], at[b] = at[b], at[a]
		})
		if w.reaches(p.MinSegment, observed) {
			geq++
			// Early exit: p-value already above alpha.
			if float64(geq+1)/float64(p.Permutations+1) > p.Alpha {
				return false
			}
		}
	}
	pval := float64(geq+1) / float64(p.Permutations+1)
	return pval <= p.Alpha
}
