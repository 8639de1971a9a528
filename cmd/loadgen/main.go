// Command loadgen drives a running scoutd with synthetic predict traffic
// and reports throughput and latency percentiles as JSON on stdout — the
// measurement harness behind the serving numbers in README.md.
//
// Usage:
//
//	loadgen [-url http://localhost:8080] [-mode single|batch] [-batch 32]
//	        [-c 4] [-duration 10s] [-seed 7] [-days 30] [-rate 6] [-chaos]
//
// -chaos turns the generator adversarial: alongside valid predictions it
// rotates malformed JSON, bodies far over the server's size limit, and
// requests whose body is cut mid-transfer. The report then carries the
// per-status breakdown and the disconnect count, so a robustness smoke can
// assert "nothing but 2xx/4xx/429 came back and the server stayed up".
//
// The request corpus is generated from the same synthetic cloud simulator
// scoutd trains on (matching -seed/-days/-rate reproduces its incident
// titles and components; mismatches still score, they just answer through
// the fallback paths more often). -mode single posts one incident per
// /v1/predict call; -mode batch posts -batch incidents per
// /v1/predict:batch call. Latency is per HTTP request either way, so
// batch percentiles amortize -batch predictions per sample.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"scouts/internal/cloudsim"
	"scouts/internal/metrics"
	"scouts/internal/serving"
)

// Report is the JSON document loadgen emits.
type Report struct {
	Mode        string  `json:"mode"`
	BatchSize   int     `json:"batch_size,omitempty"`
	Concurrency int     `json:"concurrency"`
	DurationSec float64 `json:"duration_sec"`
	// Requests counts the HTTP answers well-formed traffic drew, in every
	// mode: one per attempt, so a 429 that was slept out and re-issued
	// counts once for the 429 and once for its retry's answer. It is
	// always the sum of StatusCounts, and QPS is Requests per second.
	// Transport failures, chaos traffic and deliberate disconnects are
	// not answers and are bookkept apart.
	Requests int `json:"requests"`
	// Predictions counts the incidents scored by 200 answers (batch
	// size per answer); each 200 is one latency sample.
	Predictions int `json:"predictions"`
	// Errors counts transport failures only: requests that drew no HTTP
	// answer at all. Non-200 answers are in StatusCounts, so every
	// failure is counted exactly once.
	Errors     int     `json:"errors"`
	QPS        float64 `json:"qps"`
	PredPerSec float64 `json:"predictions_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
	// StatusCounts breaks responses down by HTTP status ("200", "400",
	// "429", ...) — the evidence a chaos run leans on to show the server
	// answered abuse with 4xx instead of 5xx or a crash.
	StatusCounts map[string]int `json:"status_counts,omitempty"`
	// ChaosRequests counts the adversarial requests a -chaos run sent
	// (malformed, oversized, torn uploads). They are bookkept apart from
	// Requests so QPS and the latency percentiles describe only
	// well-formed traffic: a 2 MiB upload rejected at the size cap is
	// neither a served request nor a latency sample, and folding it in
	// (as earlier versions did) understated both numbers.
	ChaosRequests int `json:"chaos_requests,omitempty"`
	// ChaosStatusCounts is the status breakdown of ChaosRequests only.
	ChaosStatusCounts map[string]int `json:"chaos_status_counts,omitempty"`
	// Disconnects counts requests loadgen aborted mid-body on purpose
	// (chaos mode only); they are not errors, they are the experiment.
	Disconnects int `json:"disconnects,omitempty"`
	// Retries counts re-issued attempts after a 429: loadgen honors the
	// server's Retry-After hint (sleeps it out, then retries the same
	// payload) instead of hammering a saturated server with fresh
	// traffic.
	Retries int `json:"retries,omitempty"`
	// Shed counts requests whose final answer was 429 because the run's
	// deadline left no room to honor the hint — back-pressured by design,
	// not failed.
	Shed int `json:"shed,omitempty"`
}

func main() {
	url := flag.String("url", "http://localhost:8080", "scoutd base URL")
	mode := flag.String("mode", "single", "single (/v1/predict) or batch (/v1/predict:batch)")
	batch := flag.Int("batch", 32, "incidents per request in batch mode")
	conc := flag.Int("c", 4, "concurrent client goroutines")
	duration := flag.Duration("duration", 10*time.Second, "how long to drive load")
	seed := flag.Int64("seed", 7, "world seed for the request corpus")
	days := flag.Int("days", 30, "days of synthetic incidents in the corpus")
	rate := flag.Float64("rate", 6, "incidents per day in the corpus")
	chaos := flag.Bool("chaos", false, "interleave malformed JSON, oversized bodies and mid-body disconnects")
	soak := flag.Bool("soak", false, "sustained run with periodic /metrics scrapes and an SLO verdict")
	fleet := flag.Bool("fleet", false, "drive a scoutgw gateway and judge the zero-failed-non-shed fleet SLO")
	team := flag.String("team", "", "team query parameter for fleet mode (empty = gateway default)")
	killPID := flag.Int("kill-pid", 0, "fleet mode: SIGTERM this process mid-run (0 = no kill)")
	killAfter := flag.Duration("kill-after", 2*time.Second, "fleet mode: when to deliver the kill signal")
	sloP99 := flag.Float64("slo-p99", 250, "soak SLO: p99 latency ceiling in milliseconds")
	sloErrs := flag.Float64("slo-error-rate", 0.01, "soak SLO: max fraction of requests answered non-200 or failed")
	scrape := flag.Duration("scrape", 2*time.Second, "soak /metrics scrape interval")
	outPath := flag.String("out", "", "also write the JSON report to this file")
	flag.Parse()

	reqs := corpus(*seed, *days, *rate)
	var doc any
	var err error
	exitCode := 0
	switch {
	case *fleet:
		var fr FleetReport
		fr, err = runFleet(http.DefaultClient, *url, *team, *conc, *duration, *killPID, *killAfter, reqs)
		doc = fr
		if err == nil && !fr.SLO.Pass {
			exitCode = 2 // fleet SLO verdict failed; the report below says why
		}
	case *chaos:
		doc, err = runChaos(http.DefaultClient, *url, *conc, *duration, reqs)
	case *soak:
		var sr SoakReport
		sr, err = runSoak(http.DefaultClient, *url, *mode, *batch, *conc, *duration, *scrape,
			SLO{P99Ms: *sloP99, MaxErrorRate: *sloErrs}, reqs)
		doc = sr
		if err == nil && !sr.SLO.Pass {
			exitCode = 2 // SLO verdict failed; the report below says why
		}
	default:
		doc, err = runLoad(http.DefaultClient, *url, *mode, *batch, *conc, *duration, reqs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(out))
	os.Exit(exitCode)
}

// corpus builds the request payloads from a synthetic trace.
func corpus(seed int64, days int, rate float64) []serving.PredictRequest {
	trace := cloudsim.New(cloudsim.Params{Seed: seed, Days: days, IncidentsPerDay: rate}).Generate()
	reqs := make([]serving.PredictRequest, 0, trace.Len())
	for _, in := range trace.Incidents {
		reqs = append(reqs, serving.PredictRequest{
			Title: in.Title, Body: in.Body, Components: in.Components, Time: in.CreatedAt,
		})
	}
	return reqs
}

// runLoad drives the server until the deadline and aggregates the report.
// It is the whole measurement path minus flag parsing, so tests can run it
// against an in-process httptest server.
func runLoad(client *http.Client, baseURL, mode string, batch, conc int, duration time.Duration, reqs []serving.PredictRequest) (Report, error) {
	if len(reqs) == 0 {
		return Report{}, fmt.Errorf("empty request corpus")
	}
	if conc < 1 {
		conc = 1
	}
	var path string
	var perReq int
	// Pre-encode the payload rotation once: the generator must not spend
	// its request budget on JSON encoding.
	var payloads [][]byte
	switch mode {
	case "single":
		path, perReq = "/v1/predict", 1
		for _, r := range reqs {
			b, err := json.Marshal(r)
			if err != nil {
				return Report{}, err
			}
			payloads = append(payloads, b)
		}
	case "batch":
		if batch < 1 || batch > serving.MaxBatchItems {
			return Report{}, fmt.Errorf("batch size %d out of range [1, %d]", batch, serving.MaxBatchItems)
		}
		path, perReq = "/v1/predict:batch", batch
		for lo := 0; lo+batch <= len(reqs); lo += batch {
			b, err := json.Marshal(serving.BatchPredictRequest{Items: reqs[lo : lo+batch]})
			if err != nil {
				return Report{}, err
			}
			payloads = append(payloads, b)
		}
		if len(payloads) == 0 {
			return Report{}, fmt.Errorf("corpus of %d incidents is smaller than one batch of %d", len(reqs), batch)
		}
	default:
		return Report{}, fmt.Errorf("unknown mode %q (want single or batch)", mode)
	}

	rep := drive(client, baseURL, path, payloads, perReq, conc, duration)
	rep.Mode = mode
	if mode == "batch" {
		rep.BatchSize = batch
	}
	return rep, nil
}

// retryHint reads a 429's Retry-After as a sleepable duration: the
// delay-seconds form, defaulting to 1s when absent or unparseable, and
// capped at 5s so a hostile hint cannot park a worker for the run.
func retryHint(h http.Header) time.Duration {
	secs, err := strconv.Atoi(h.Get("Retry-After"))
	if err != nil || secs < 1 {
		return time.Second
	}
	return min(time.Duration(secs)*time.Second, 5*time.Second)
}

// drive is the measurement loop behind runLoad, the soak and the fleet
// mode: conc workers rotate through the payloads, all posted to path,
// until the deadline.
func drive(client *http.Client, baseURL, path string, payloads [][]byte, perReq, conc int, duration time.Duration) Report {
	return driveShots(client, baseURL+path, perReq, conc, duration, func(k int) shot {
		return shot{body: payloads[k%len(payloads)]}
	})
}

// shot is one request of a rotation.
type shot struct {
	body []byte
	// chaos marks adversarial traffic: its answers land in
	// ChaosStatusCounts and are never retried or sampled for latency.
	chaos bool
	// tear sends body and then fails the upload mid-transfer; the
	// client-side abort counts as a Disconnect.
	tear bool
}

// driveShots is the one worker loop every mode shares: conc workers post
// next(k) for k = w, w+1, ... until the deadline and the report is
// aggregated once. A 429 to well-formed traffic is honored, not
// hammered — the worker sleeps the server's Retry-After hint and
// re-issues the same payload, bookkeeping the retry; only when the
// deadline leaves no room for the hint does the request count as shed.
func driveShots(client *http.Client, url string, perReq, conc int, duration time.Duration, next func(k int) shot) Report {
	type worker struct {
		latencies     []float64 // milliseconds
		errors        int
		retries       int
		shed          int
		disconnects   int
		statuses      map[int]int
		chaosStatuses map[int]int
	}
	workers := make([]worker, conc)
	deadline := time.Now().Add(duration)
	done := make(chan int, conc)
	for w := 0; w < conc; w++ {
		go func(w int) {
			defer func() { done <- w }()
			wk := &workers[w]
			wk.statuses = map[int]int{}
			wk.chaosStatuses = map[int]int{}
			for k := w; time.Now().Before(deadline); k++ {
				s := next(k)
				for {
					start := time.Now()
					var body io.Reader = bytes.NewReader(s.body)
					if s.tear {
						body = &abortReader{data: s.body}
					}
					resp, err := client.Post(url, "application/json", body)
					if err != nil {
						if s.tear {
							wk.disconnects++
						} else {
							wk.errors++
						}
						break
					}
					_, _ = bytes.NewBuffer(nil).ReadFrom(resp.Body)
					status := resp.StatusCode
					hint := retryHint(resp.Header)
					resp.Body.Close()
					if s.chaos {
						wk.chaosStatuses[status]++
						break
					}
					wk.statuses[status]++
					if status == http.StatusTooManyRequests {
						if time.Now().Add(hint).After(deadline) {
							wk.shed++
							break
						}
						time.Sleep(hint)
						wk.retries++
						continue
					}
					if status == http.StatusOK {
						wk.latencies = append(wk.latencies, float64(time.Since(start).Microseconds())/1000)
					}
					break
				}
			}
		}(w)
	}
	for range workers {
		<-done
	}

	rep := Report{Concurrency: conc, DurationSec: duration.Seconds()}
	var all []float64
	for i := range workers {
		all = append(all, workers[i].latencies...)
		rep.Errors += workers[i].errors
		rep.Retries += workers[i].retries
		rep.Shed += workers[i].shed
		rep.Disconnects += workers[i].disconnects
		mergeStatuses(&rep.StatusCounts, workers[i].statuses)
		mergeStatuses(&rep.ChaosStatusCounts, workers[i].chaosStatuses)
	}
	for _, n := range rep.StatusCounts {
		rep.Requests += n
	}
	for _, n := range rep.ChaosStatusCounts {
		rep.ChaosRequests += n
	}
	rep.ChaosRequests += rep.Disconnects
	rep.Predictions = len(all) * perReq
	if duration > 0 {
		rep.QPS = float64(rep.Requests) / duration.Seconds()
		rep.PredPerSec = float64(rep.Predictions) / duration.Seconds()
	}
	// Quantile of an empty sample is NaN, which JSON cannot encode; a run
	// without a single 200 reports zero percentiles instead.
	if len(all) > 0 {
		sort.Float64s(all)
		rep.P50Ms = metrics.Quantile(all, 0.50)
		rep.P95Ms = metrics.Quantile(all, 0.95)
		rep.P99Ms = metrics.Quantile(all, 0.99)
	}
	return rep
}

// mergeStatuses folds one worker's status histogram into a report map.
func mergeStatuses(dst *map[string]int, statuses map[int]int) {
	for code, n := range statuses {
		if *dst == nil {
			*dst = map[string]int{}
		}
		(*dst)[strconv.Itoa(code)] += n
	}
}

// abortReader feeds a body prefix then fails the read, so the HTTP client
// aborts the request mid-body — the torn-upload case a public endpoint
// sees daily and a server must survive without a 5xx or a crash.
type abortReader struct {
	data []byte
	off  int
}

var errChaosDisconnect = errors.New("chaos: simulated mid-body disconnect")

func (r *abortReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, errChaosDisconnect
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// runChaos drives the server with a deterministic rotation of valid and
// adversarial requests through the shared worker loop: well-formed
// predictions, malformed JSON, bodies far past the server's 1 MiB
// predict limit, and uploads disconnected mid-body. It reports the
// status breakdown instead of judging — the caller (the `make ci` chaos
// smoke) decides which statuses are acceptable; the hard requirement is
// only that every request gets an orderly HTTP answer or a client-side
// abort, never a hung connection.
func runChaos(client *http.Client, baseURL string, conc int, duration time.Duration, reqs []serving.PredictRequest) (Report, error) {
	if len(reqs) == 0 {
		return Report{}, fmt.Errorf("empty request corpus")
	}
	if conc < 1 {
		conc = 1
	}
	var valid [][]byte
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return Report{}, err
		}
		valid = append(valid, b)
	}
	// One oversized body, built once: 2 MiB of syntactically valid JSON,
	// double the server's single-predict limit.
	oversized := []byte(`{"title":"` + strings.Repeat("a", 2<<20) + `"}`)

	rep := driveShots(client, baseURL+"/v1/predict", 1, conc, duration, func(k int) shot {
		body := valid[k%len(valid)]
		switch k % 4 {
		case 1: // malformed JSON: truncated object.
			return shot{body: body[:len(body)/2], chaos: true}
		case 2: // oversized body: past MaxBytesReader.
			return shot{body: oversized, chaos: true}
		case 3: // mid-body disconnect.
			return shot{body: body[:len(body)/2], chaos: true, tear: true}
		default: // well-formed: the control group.
			return shot{body: body}
		}
	})
	rep.Mode = "chaos"
	return rep, nil
}
