package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scouts/internal/serving"
)

// requestDeadline bounds every HTTP request the load generator sends. A
// request that misses it is a failed operation.
const requestDeadline = 2 * time.Second

// job is one pre-encoded request body, the held-out incidents it
// carries in item order, and — once attached — their reference answers.
// A job without references is only checked for its status (warm-up).
type job struct {
	body []byte
	idx  []int
	refs []answer
}

func singleJobs(w *world, perm []int) ([]job, error) {
	jobs := make([]job, len(perm))
	for k, i := range perm {
		b, err := json.Marshal(predictRequest(w.held[i]))
		if err != nil {
			return nil, err
		}
		jobs[k] = job{body: b, idx: []int{i}}
	}
	return jobs, nil
}

// batchJobs cuts the permuted held-out set into n batches of size
// items, wrapping around the permutation.
func batchJobs(w *world, perm []int, n, size int) ([]job, error) {
	jobs := make([]job, n)
	for b := range jobs {
		var req serving.BatchPredictRequest
		for j := 0; j < size; j++ {
			i := perm[(b*size+j)%len(perm)]
			req.Items = append(req.Items, predictRequest(w.held[i]))
			jobs[b].idx = append(jobs[b].idx, i)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		jobs[b].body = body
	}
	return jobs, nil
}

// attachRefs gives every job the reference answers of its incidents.
func attachRefs(jobs []job, refs []answer) {
	for b := range jobs {
		jobs[b].refs = make([]answer, len(jobs[b].idx))
		for k, i := range jobs[b].idx {
			jobs[b].refs[k] = refs[i]
		}
	}
}

// outcome classifies one request.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeWrong
	outcomeStatus
	outcomeShed
	outcomeTimeout
	outcomeTransport
)

// loadStats is what one load phase measured. Every failed request is
// kept in lat as +Inf, so it counts as missing any latency limit.
type loadStats struct {
	lat       []float64 // ms, one per attempted request
	late      []float64 // ms, open loop only: send time minus due time
	attempted int
	outcomes  [outcomeTransport + 1]int
	incidents int // correctly answered incidents
	elapsed   time.Duration
	cpu       time.Duration
	firstErr  string
}

func (s *loadStats) failed() int { return s.attempted - s.outcomes[outcomeOK] }

func (s *loadStats) merge(o *loadStats) {
	s.lat = append(s.lat, o.lat...)
	s.late = append(s.late, o.late...)
	s.attempted += o.attempted
	for i := range s.outcomes {
		s.outcomes[i] += o.outcomes[i]
	}
	s.incidents += o.incidents
	if s.firstErr == "" {
		s.firstErr = o.firstErr
	}
}

// client is the load generator's HTTP client: at most conns
// connections to the target.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: requestDeadline,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// do sends one job and checks every answer against its reference.
// Nothing is retried: a refused request is a failed operation.
func do(ctx context.Context, c *http.Client, url string, batch bool, j *job) (outcome, string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(j.body))
	if err != nil {
		return outcomeTransport, err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		var ue interface{ Timeout() bool }
		if errors.As(err, &ue) && ue.Timeout() || errors.Is(err, context.DeadlineExceeded) {
			return outcomeTimeout, err.Error()
		}
		return outcomeTransport, err.Error()
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return outcomeTransport, err.Error()
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return outcomeShed, "429 " + string(body)
	case resp.StatusCode != http.StatusOK:
		return outcomeStatus, fmt.Sprintf("%d %s", resp.StatusCode, body)
	case j.refs == nil:
		return outcomeOK, ""
	}
	if !batch {
		var pr serving.PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			return outcomeWrong, "decoding answer: " + err.Error()
		}
		if got := answerOfResponse(&pr); !got.equal(j.refs[0]) {
			return outcomeWrong, fmt.Sprintf("answer %+v differs from reference %+v", got, j.refs[0])
		}
		return outcomeOK, ""
	}
	var br serving.BatchPredictResponse
	if err := json.Unmarshal(body, &br); err != nil {
		return outcomeWrong, "decoding batch answer: " + err.Error()
	}
	if len(br.Results) != len(j.refs) {
		return outcomeWrong, fmt.Sprintf("batch answered %d of %d items", len(br.Results), len(j.refs))
	}
	for k, r := range br.Results {
		if r.Prediction == nil {
			return outcomeWrong, "batch item error: " + r.Error
		}
		if got := answerOfResponse(r.Prediction); !got.equal(j.refs[k]) {
			return outcomeWrong, fmt.Sprintf("batch item %d: answer %+v differs from reference %+v", k, got, j.refs[k])
		}
	}
	return outcomeOK, ""
}

// record files one finished request into a worker's stats.
func (s *loadStats) record(o outcome, msg string, lat time.Duration, items int) {
	s.attempted++
	s.outcomes[o]++
	if o != outcomeOK {
		s.lat = append(s.lat, math.Inf(1))
		if s.firstErr == "" {
			s.firstErr = msg
		}
		return
	}
	s.lat = append(s.lat, ms(lat))
	s.incidents += items
}

// openLoop sends jobs on a fixed schedule of rate per second for d, over
// at most conns connections, and times each request from when it was
// due. Requests whose turn comes while every connection is busy are sent
// late; the lateness is part of their latency.
func openLoop(c *http.Client, url string, jobs []job, rate float64, d time.Duration, conns int) *loadStats {
	interval := time.Duration(float64(time.Second) / rate)
	total := int64(d / interval)
	var next atomic.Int64
	parts := make([]*loadStats, conns)
	cpu0 := processCPU()
	start := time.Now()
	var wg sync.WaitGroup
	for k := range parts {
		parts[k] = &loadStats{}
		wg.Add(1)
		go func(s *loadStats) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				s.late = append(s.late, ms(time.Since(due)))
				o, msg := do(context.Background(), c, url, false, &jobs[i%int64(len(jobs))])
				s.record(o, msg, time.Since(due), 1)
			}
		}(parts[k])
	}
	wg.Wait()
	out := &loadStats{elapsed: time.Since(start), cpu: processCPU() - cpu0}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// closedLoop keeps conns requests in flight for d: each connection sends
// its next job as soon as the previous answer arrives.
func closedLoop(c *http.Client, url string, jobs []job, batch bool, d time.Duration, conns int) *loadStats {
	var next atomic.Int64
	parts := make([]*loadStats, conns)
	cpu0 := processCPU()
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for k := range parts {
		parts[k] = &loadStats{}
		wg.Add(1)
		go func(s *loadStats) {
			defer wg.Done()
			for time.Now().Before(end) {
				j := &jobs[(next.Add(1)-1)%int64(len(jobs))]
				t0 := time.Now()
				o, msg := do(context.Background(), c, url, batch, j)
				s.record(o, msg, time.Since(t0), len(j.idx))
			}
		}(parts[k])
	}
	wg.Wait()
	out := &loadStats{elapsed: time.Since(start), cpu: processCPU() - cpu0}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
