// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, so benchmark runs can be committed and diffed
// (BENCH_PR2.json, BENCH_PR3.json) without scraping the text format. Input
// may concatenate runs from several packages (as `make bench-pr3` does); each
// result carries the package it came from. Only the standard library is
// used.
//
// Usage:
//
//	go test -bench 'BestSplit|Featurize|WindowStats' -run '^$' . | benchjson > BENCH_PR2.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Document is the full converted run. Pkg is kept for single-package runs
// (empty when the input mixes packages — read each result's pkg instead).
type Document struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	doc := Document{Results: []Result{}}
	pkgs := map[string]bool{}
	cur := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			cur = strings.TrimPrefix(line, "pkg: ")
			pkgs[cur] = true
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				r.Pkg = cur
				doc.Results = append(doc.Results, r)
			}
		}
	}
	if len(pkgs) == 1 {
		doc.Pkg = cur
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// parseLine parses one benchmark result line: name, iteration count, then
// (value, unit) pairs such as "123 ns/op" or "4 allocs/op".
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return r, r.NsPerOp > 0
}
