package forest

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzForestFromBinary feeds arbitrary bytes to the SFF1 decoder. A blob
// it accepts must be safe to serve: PredictProb, PredictProbBatch and
// Explain never panic, even on NaN and ±Inf inputs; the batch kernel
// answers bit for bit what PredictProb does on every NaN-free vector
// unless a split threshold is NaN (the one case where the two kernels
// route differently); and re-encoding the forest is a fixed point.
//
// xbits supplies the probe values, 8 bytes per float64, cycled across
// 16 vectors, so the batch runs two full 8-lane groups, and three more
// (all +Inf, all -Inf, a leading NaN) make up the scalar tail.
//
// The seed corpus in testdata/fuzz/FuzzForestFromBinary holds a small
// trained forest, the single-leaf/NaN-threshold forest of
// TestPackEdgeCases, truncations and single-bit flips of the trained
// blob, and a FEAT header that claims 2^32-1 names.
func FuzzForestFromBinary(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob, xbits []byte) {
		ff, err := ForestFromBinary(blob)
		if err != nil {
			return
		}
		xs := fuzzProbes(len(ff.Features()), xbits)
		batch := ff.PredictProbBatch(xs, nil)
		nanSplit := false
		for i, k := range ff.flat.kids {
			if k != int32(i) && math.IsNaN(ff.flat.threshold[i]) {
				nanSplit = true
			}
		}
		for i, x := range xs {
			single := ff.PredictProb(x)
			ff.Explain(x)
			if !nanSplit && !hasNaN(x) && math.Float64bits(batch[i]) != math.Float64bits(single) {
				t.Fatalf("vector %d: batch %v, PredictProb %v", i, batch[i], single)
			}
		}

		enc, err := ff.AppendBinary(nil)
		if err != nil {
			t.Fatalf("accepted forest does not re-encode: %v", err)
		}
		back, err := ForestFromBinary(enc)
		if err != nil {
			t.Fatalf("re-encoded forest does not decode: %v", err)
		}
		again, err := back.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

// fuzzProbes builds the probe batch FuzzForestFromBinary scores: 16
// vectors cycling through the float64s in xbits (zeros when it holds
// none), then all +Inf, all -Inf, and the first vector with a NaN in
// front.
func fuzzProbes(dim int, xbits []byte) [][]float64 {
	vals := make([]float64, max(len(xbits)/8, 1))
	for i := range vals[:len(xbits)/8] {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(xbits[8*i:]))
	}
	xs := make([][]float64, 0, 19)
	for i := 0; i < 16; i++ {
		x := make([]float64, dim)
		for j := range x {
			x[j] = vals[(i+j)%len(vals)]
		}
		xs = append(xs, x)
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1)} {
		x := make([]float64, dim)
		for j := range x {
			x[j] = v
		}
		xs = append(xs, x)
	}
	nan := append([]float64(nil), xs[0]...)
	if dim > 0 {
		nan[0] = math.NaN()
	}
	return append(xs, nan)
}
