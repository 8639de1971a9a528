package cpd

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// seriesFamilies are the input shapes the scanner must agree with the
// reference kernel on: continuous noise, heavy ties, zero-inflated event
// counts, distribution steps, degenerate constants, signed zeros (equal
// under comparison, distinct in bits) and IEEE specials.
var seriesFamilies = []struct {
	name string
	gen  func(n int, rng *rand.Rand) []float64
}{
	{"gaussian", func(n int, rng *rand.Rand) []float64 {
		return fill(n, func(int) float64 { return rng.NormFloat64() })
	}},
	{"small-int-ties", func(n int, rng *rand.Rand) []float64 {
		return fill(n, func(int) float64 { return float64(rng.Intn(4)) })
	}},
	{"zero-inflated", func(n int, rng *rand.Rand) []float64 {
		return fill(n, func(int) float64 {
			if rng.Float64() < 0.8 {
				return 0
			}
			return float64(1 + rng.Intn(6))
		})
	}},
	{"mean-step", func(n int, rng *rand.Rand) []float64 {
		at := rng.Intn(n + 1)
		return fill(n, func(i int) float64 {
			if i < at {
				return rng.NormFloat64()
			}
			return 3 + rng.NormFloat64()
		})
	}},
	{"variance-step", func(n int, rng *rand.Rand) []float64 {
		at := rng.Intn(n + 1)
		return fill(n, func(i int) float64 {
			if i < at {
				return 0.2 * rng.NormFloat64()
			}
			return 4 * rng.NormFloat64()
		})
	}},
	{"constant", func(n int, rng *rand.Rand) []float64 {
		return fill(n, func(int) float64 { return 7.25 })
	}},
	{"signed-zero", func(n int, rng *rand.Rand) []float64 {
		vals := []float64{0, math.Copysign(0, -1), 1, -1}
		return fill(n, func(int) float64 { return vals[rng.Intn(len(vals))] })
	}},
	{"specials", func(n int, rng *rand.Rand) []float64 {
		vals := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, math.MaxFloat64}
		return fill(n, func(int) float64 {
			if rng.Float64() < 0.05 {
				return vals[rng.Intn(len(vals))]
			}
			return rng.NormFloat64()
		})
	}},
}

func fill(n int, f func(i int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// equivLengths covers every length up to a few Scout windows densely and
// the rest of 0..256 sparsely (the reference kernel is O(n^2 log n)).
func equivLengths() []int {
	var ns []int
	for n := 0; n <= 256; n++ {
		if n <= 48 || n%13 == 0 || n == 256 {
			ns = append(ns, n)
		}
	}
	return ns
}

// TestScannerMatchesReference is the kernel's equivalence oracle at the
// split level: on every family, length and MinSegment, the scanner's best
// split has the reference's index and the same statistic bits, and on a
// shuffled copy (the permutation test's view) every split's statistic has
// the reference's bits.
func TestScannerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20200810))
	for _, fam := range seriesFamilies {
		for _, n := range equivLengths() {
			for _, minSeg := range []int{1, 2, 5, 8} {
				s := fam.gen(n, rng)
				w := newScanner(n)
				w.load(s)
				gotIdx, gotStat := w.bestSplit(minSeg)
				wantIdx, wantStat := bestSplit(s, minSeg)
				if gotIdx != wantIdx || math.Float64bits(gotStat) != math.Float64bits(wantStat) {
					t.Fatalf("%s n=%d minSeg=%d: bestSplit = (%d, %v), reference (%d, %v)",
						fam.name, n, minSeg, gotIdx, gotStat, wantIdx, wantStat)
				}
				if n < 2*minSeg {
					continue
				}
				// Shuffle as the permutation test does, then compare every
				// split of the shuffled copy.
				perm := rng.Perm(n)
				shuffled := make([]float64, n)
				at := make([]int32, n)
				for q, o := range perm {
					shuffled[q] = s[o]
					at[q] = w.at[o]
				}
				copy(w.at, at)
				w.start(minSeg)
				for i := minSeg; i <= n-minSeg; i++ {
					w.cross(i - 1)
					got, want := w.splitStat(), energyStat(shuffled[:i], shuffled[i:])
					if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("%s n=%d minSeg=%d shuffled split %d: %v, reference %v",
							fam.name, n, minSeg, i, got, want)
					}
				}
			}
		}
	}
}

// TestDetectMatchesReference checks the whole detector — binary
// segmentation, the permutation test's draws and early exits — against
// the reference kernel across seeds, permutation counts and alphas. Series
// longer than 64 points run at two MinSegments and 9 permutations: the
// reference detector costs seconds there at 99.
func TestDetectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := []int{0, 1, 4, 9, 10, 16, 25, 40, 64, 100, 256}
	paramSets := []Params{
		{},
		{Permutations: 9, Alpha: 0.2, Seed: 3},
		{Permutations: 29, Seed: -11},
		{Permutations: 99, Alpha: 0.01, Seed: 42, MaxPoints: 3},
	}
	cases := 0
	for _, fam := range seriesFamilies {
		for _, n := range lengths {
			for k, minSeg := range []int{1, 2, 5, 8} {
				p := paramSets[(n+k)%len(paramSets)]
				if n > 64 {
					if k%2 == 1 {
						continue
					}
					p = paramSets[1]
				}
				p.MinSegment = minSeg
				s := fam.gen(n, rng)
				if got, want := Detect(s, p), refDetect(s, p); !slices.Equal(got, want) {
					t.Fatalf("%s n=%d %+v: Detect = %v, reference %v", fam.name, n, p, got, want)
				}
				if got, want := HasChange(s, p), refHasChange(s, p); got != want {
					t.Fatalf("%s n=%d %+v: HasChange = %v, reference %v", fam.name, n, p, got, want)
				}
				cases++
			}
		}
	}
	t.Logf("%d series agree", cases)
}

// maxFuzzPoints bounds fuzzed series (the Scout window is 40 points) so
// the reference kernel stays quick.
const maxFuzzPoints = 64

// FuzzDetect feeds raw float64 bit patterns (8 little-endian bytes each,
// so NaN payloads, ±Inf, -0 and subnormals are all reachable) through
// Detect and HasChange: no panic, change points sorted, in range and at
// most MaxPoints, and equal to the reference kernel's answers. The seed
// corpus in testdata/fuzz/FuzzDetect (steps, ties, NaN payloads, signed
// zeros, infinities, subnormals) runs on every go test.
func FuzzDetect(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, minSeg, perms, alpha uint8, seed int64) {
		series := decodeSeries(data)
		p := Params{
			MinSegment:   int(minSeg % 10),
			Permutations: int(perms % 100),
			Alpha:        float64(alpha%100) / 100,
			Seed:         seed,
		}
		got := Detect(series, p)
		d := p.withDefaults()
		if len(got) > d.MaxPoints {
			t.Fatalf("%d change points > MaxPoints %d", len(got), d.MaxPoints)
		}
		for i, c := range got {
			if c < d.MinSegment || c > len(series)-d.MinSegment {
				t.Fatalf("change point %d outside [%d, %d]", c, d.MinSegment, len(series)-d.MinSegment)
			}
			if i > 0 && got[i-1] >= c {
				t.Fatalf("change points not strictly ascending: %v", got)
			}
		}
		if want := refDetect(series, p); !slices.Equal(got, want) {
			t.Fatalf("Detect = %v, reference %v", got, want)
		}
		if got, want := HasChange(series, p), refHasChange(series, p); got != want {
			t.Fatalf("HasChange = %v, reference %v", got, want)
		}
	})
}

func decodeSeries(data []byte) []float64 {
	n := min(len(data)/8, maxFuzzPoints)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out
}
