package forest

import (
	"bytes"
	"math/rand"
	"testing"

	"scouts/internal/ml/mlcore"
)

// snapshotWith trains with the given params and returns the serialized
// forest.
func snapshotWith(t *testing.T, d *mlcore.Dataset, p Params) []byte {
	t.Helper()
	f, err := Train(d, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPresortedKernelMatchesReference proves the presorted split kernel
// grows byte-identical forests to the retained seed kernel: same splits,
// same thresholds, same importances, bit for bit. Duplicate-heavy features
// (the xor dataset's near-binary columns, plus a constant column) exercise
// the equal-value-run tie handling; bootstrap on/off exercises the
// multiplicity expansion.
func TestPresortedKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := xorDataset(500, 0.05, rng)
	// A constant column and an integer-valued column maximize ties.
	d.Features = append(d.Features, "const", "quant")
	for i := range d.Samples {
		d.Samples[i].X = append(d.Samples[i].X, 1.0, float64(rng.Intn(4)))
	}
	for _, boot := range []bool{false, true} {
		for _, workers := range []int{1, 8} {
			p := Params{NumTrees: 20, MaxDepth: 8, Seed: 77, Workers: workers, DisableBootstrap: !boot}
			ref := p
			ref.ReferenceKernel = true
			a, b := snapshotWith(t, d, p), snapshotWith(t, d, ref)
			if !bytes.Equal(a, b) {
				t.Fatalf("bootstrap=%v workers=%d: presorted kernel diverges from reference (%d vs %d bytes)",
					boot, workers, len(a), len(b))
			}
		}
	}
}

// TestBestSplitZeroAllocs guards the presorted kernel's allocation
// contract: once the per-tree scratch exists, finding the best split of a
// node allocates nothing.
func TestBestSplitZeroAllocs(t *testing.T) {
	d := xorDataset(400, 0.1, rand.New(rand.NewSource(8)))
	cols := mlcore.NewColumns(d, 1)
	ctx := newSplitCtx(cols)
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	ctx.reset(idx)
	var wSum, wPos float64
	for _, s := range d.Samples {
		wSum += s.W()
		if s.Y {
			wPos += s.W()
		}
	}
	tp := &treeParams{maxDepth: 8, minLeaf: 2, mtry: 2, rng: newRNG(5)}
	allocs := testing.AllocsPerRun(50, func() {
		bestSplit(ctx, tp, 0, ctx.n, wSum, wPos)
	})
	if allocs != 0 {
		t.Fatalf("bestSplit allocates %.1f times per node, want 0", allocs)
	}
}

// TestPartitionKeepsInvariants checks the two invariants the kernel relies
// on after a split: every feature range stays sorted and idx keeps the
// stable filtered order of the reference kernel.
func TestPartitionKeepsInvariants(t *testing.T) {
	d := xorDataset(200, 0.2, rand.New(rand.NewSource(9)))
	cols := mlcore.NewColumns(d, 0)
	ctx := newSplitCtx(cols)
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = (i * 7) % d.Len() // scrambled but a permutation
	}
	ctx.reset(idx)
	col0 := cols.Col(0)
	thr := 0.5
	mid := ctx.partitionIdx(0, ctx.n, 0, thr)
	ctx.partitionFeatures(0, ctx.n, int(mid), true, true)
	// idx order must equal the reference filter order.
	var want []int32
	for _, row := range idx {
		if col0[row] <= thr {
			want = append(want, int32(row))
		}
	}
	for _, row := range idx {
		if col0[row] > thr {
			want = append(want, int32(row))
		}
	}
	for i, row := range ctx.idx {
		if row != want[i] {
			t.Fatalf("idx[%d] = %d, want %d", i, row, want[i])
		}
	}
	// Every feature range must remain sorted by value within each side.
	for f := 0; f < cols.Dim(); f++ {
		col := cols.Col(f)
		for _, seg := range [][]int32{ctx.rows(f)[:mid], ctx.rows(f)[mid:]} {
			for i := 1; i < len(seg); i++ {
				if col[seg[i-1]] > col[seg[i]] {
					t.Fatalf("feature %d not sorted after partition", f)
				}
			}
		}
	}
}

// TestOneSidedCompaction checks that compactLeft/compactRight produce the
// same committed side as the full stable partition (the other side is
// explicitly unspecified).
func TestOneSidedCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 257
	rows := make([]int32, n)
	side := make([]uint8, n)
	for i := range rows {
		rows[i] = int32(i)
		side[i] = uint8(rng.Intn(2))
	}
	ctx := &splitCtx{n: n, tmp: make([]int32, n), side: side}
	ref := append([]int32(nil), rows...)
	mid := ctx.stablePartition(ref)
	if mid == 0 || mid == n {
		t.Fatal("degenerate partition; pick another seed")
	}
	left := append([]int32(nil), rows...)
	ctx.compactLeft(left)
	for i := 0; i < mid; i++ {
		if left[i] != ref[i] {
			t.Fatalf("compactLeft[%d] = %d, want %d", i, left[i], ref[i])
		}
	}
	right := append([]int32(nil), rows...)
	ctx.compactRight(right, mid)
	for i := mid; i < n; i++ {
		if right[i] != ref[i] {
			t.Fatalf("compactRight[%d] = %d, want %d", i, right[i], ref[i])
		}
	}
}
