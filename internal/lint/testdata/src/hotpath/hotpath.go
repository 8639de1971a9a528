// Package hotpath exercises the hotpath analyzer: inside a
// //scout:hotpath function, reflective formatting, interface boxing of
// concrete values, and growing an escaping fresh slice are flagged; the
// caller-supplied-buffer pattern and pointer-shaped arguments are not.
package hotpath

import (
	"cmp"
	"fmt"
	"slices"
)

type point struct{ x, y float64 }

func sink(v any) { _ = v }

//scout:hotpath
func Format(id int) string {
	return fmt.Sprintf("incident-%d", id) // want "hot path calls fmt.Sprintf"
}

//scout:hotpath
func Collect(n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, float64(i)) // want "hot path grows fresh slice"
	}
	return out
}

//scout:hotpath
func Box(p point) {
	sink(p) // want "boxes .* into interface parameter"
}

// PassPointer is fine: pointers are pointer-shaped and box for free.
//
//scout:hotpath
func PassPointer(p *point) {
	sink(p)
}

// CollectInto is the sanctioned caller-supplied-buffer pattern: dst is a
// parameter, so the make fallback does not mark it as a fresh local.
//
//scout:hotpath
func CollectInto(dst []float64, n int) []float64 {
	if cap(dst) < n {
		dst = make([]float64, 0, n)
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, float64(i))
	}
	return dst
}

// Generic is fine: type parameters instantiated with concrete types take
// the arguments unboxed.
//
//scout:hotpath
func Generic(xs []float64) int {
	slices.SortFunc(xs, func(a, b float64) int { return cmp.Compare(a, b) })
	return cmp.Compare(xs[0], xs[1])
}

func ident[T any](v T) T { return v }

// GenericAny boxes: the type parameter is instantiated with an interface.
//
//scout:hotpath
func GenericAny(p point) {
	ident[any](p) // want "boxes .* into interface parameter"
}

// Cold carries no directive; formatting and boxing are unrestricted.
func Cold(id int) string {
	sink(point{1, 2})
	return fmt.Sprintf("incident-%d", id)
}
