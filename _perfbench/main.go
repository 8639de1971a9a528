// Command perfbench is the repository's end-to-end benchmark. It builds a
// fixed-seed synthetic cloud, trains and publishes a PhyNet Scout on its
// first 90 days, and drives one workload against the held-out 30 days:
//
//	gw-single      one incident per POST /v1/predict through the gateway
//	               in front of two replicas; open loop at a fixed rate
//	replica-batch  POST /v1/predict:batch with 32 incidents, straight to
//	               one replica; closed loop
//	train          TrainAndPublish, Server.Reload of the pack, then
//	               held-out scoring in-process
//
// Every answer is checked against a reference Scout restored
// independently from the published pack. With -trace 0 the run reports
// the end-to-end metrics; with -trace 1 it instruments the layers from
// the outside (handler wrappers, a data-source decorator, direct calls
// into each package) and reports per-layer metrics instead.
//
// Usage:
//
//	perfbench --workload gw-single --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// The run exits non-zero, without that line, when set-up fails, and with
// it but non-zero when any answer was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

var workloads = []string{"gw-single", "replica-batch", "train"}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "world seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	o.trace = trace == 1
	if !slices.Contains(workloads, o.workload) || o.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	var res *result
	var err error
	switch o.workload {
	case "train":
		res, err = runTrain(o)
	default:
		res, err = runServing(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints one human-readable line before the result.
func report(format string, args ...any) {
	fmt.Printf("perfbench: "+format+"\n", args...)
}

// printEnv prints the environment stamp as one JSON line.
func printEnv(o options, params map[string]any) {
	b, err := json.Marshal(envStamp(o, params))
	if err != nil {
		return
	}
	fmt.Println("perfbench: env " + string(b))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
