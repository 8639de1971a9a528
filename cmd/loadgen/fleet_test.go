package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"scouts/internal/gateway"
)

func TestRetryHint(t *testing.T) {
	h := http.Header{}
	if d := retryHint(h); d != time.Second {
		t.Fatalf("missing header hint = %v, want the 1s default", d)
	}
	h.Set("Retry-After", "2")
	if d := retryHint(h); d != 2*time.Second {
		t.Fatalf("Retry-After 2 hint = %v", d)
	}
	h.Set("Retry-After", "3600")
	if d := retryHint(h); d != 5*time.Second {
		t.Fatalf("hostile hint must cap at 5s, got %v", d)
	}
	h.Set("Retry-After", "garbage")
	if d := retryHint(h); d != time.Second {
		t.Fatalf("unparseable hint = %v, want the 1s default", d)
	}
}

// TestDriveHonors429 pins the loadgen side of the Retry-After contract:
// a 429 is slept out and re-issued (counted as a retry), not hammered
// and not counted as an error.
func TestDriveHonors429(t *testing.T) {
	var calls atomic.Int64
	var early atomic.Int64
	var firstAt atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		n := calls.Add(1)
		if n == 1 {
			firstAt.Store(time.Now().UnixNano())
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		// Any request landing well before the hint elapsed means the
		// client hammered instead of honoring the 429.
		if time.Since(time.Unix(0, firstAt.Load())) < 900*time.Millisecond {
			early.Add(1)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	rep := drive(ts.Client(), ts.URL, "/v1/predict", [][]byte{[]byte(`{}`)}, 1, 1, 1500*time.Millisecond)
	if rep.Errors != 0 {
		t.Fatalf("a honored 429 must not count as an error: %+v", rep)
	}
	if rep.Retries < 1 {
		t.Fatalf("retries = %d, want the 429 re-issue counted", rep.Retries)
	}
	if early.Load() != 0 {
		t.Fatalf("%d request(s) fired before the Retry-After hint elapsed", early.Load())
	}
	if rep.StatusCounts["429"] != 1 {
		t.Fatalf("status counts missing the 429: %+v", rep.StatusCounts)
	}
}

// TestJudgeForgivesHonored429: a 429 that was slept out and retried is
// one request that ended in its retry's answer, so the soak verdict
// counts the retry's 200 and not the 429. A request shed with a final
// 429 still fails the error rate.
func TestJudgeForgivesHonored429(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	rep := drive(ts.Client(), ts.URL, "/v1/predict", [][]byte{[]byte(`{}`)}, 1, 1, 1500*time.Millisecond)
	if rep.Retries != 1 || rep.StatusCounts["429"] != 1 {
		t.Fatalf("stub 429 not retried once: %+v", rep)
	}
	sr := SoakReport{Report: rep}
	if v := judge(SLO{P99Ms: 60_000, MaxErrorRate: 0}, &sr); !v.Pass || v.ErrorRate != 0 {
		t.Fatalf("an honored 429 failed the verdict: %+v", v)
	}

	// Two 429s: one retried into a 200, one shed. Of 9 requests, the
	// shed one failed.
	shed := SoakReport{Report: Report{StatusCounts: map[string]int{"200": 8, "429": 2}, Retries: 1, Shed: 1}}
	if v := judge(SLO{P99Ms: 60_000, MaxErrorRate: 1}, &shed); v.ErrorRate != 1.0/9 {
		t.Fatalf("shed request error rate = %v, want 1/9", v.ErrorRate)
	}
}

// TestDriveShedsWhenDeadlineBeatsHint: a 429 whose hint does not fit in
// the remaining run is a shed, not a retry and not an error.
func TestDriveShedsWhenDeadlineBeatsHint(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	rep := drive(ts.Client(), ts.URL, "/v1/predict", [][]byte{[]byte(`{}`)}, 1, 1, 300*time.Millisecond)
	if rep.Shed == 0 {
		t.Fatalf("no sheds recorded against an always-429 server: %+v", rep)
	}
	if rep.Errors != 0 || rep.Retries != 0 {
		t.Fatalf("sheds misfiled as errors/retries: %+v", rep)
	}
}

// TestDriveCountsEachFailureOnce: a non-200 answer is an HTTP answer,
// not a transport error. It lands in StatusCounts (and Requests) only,
// so the soak error rate counts each failure once and the fleet verdict
// counts 5xx once and 4xx not at all.
func TestDriveCountsEachFailureOnce(t *testing.T) {
	codes := []int{http.StatusOK, http.StatusBadRequest, http.StatusServiceUnavailable}
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(codes[(calls.Add(1)-1)%int64(len(codes))])
	}))
	defer ts.Close()

	rep := drive(ts.Client(), ts.URL, "/v1/predict", [][]byte{[]byte(`{}`)}, 1, 2, 300*time.Millisecond)
	ok, bad, unavailable := rep.StatusCounts["200"], rep.StatusCounts["400"], rep.StatusCounts["503"]
	if ok == 0 || bad == 0 || unavailable == 0 {
		t.Fatalf("stub mix not exercised: %+v", rep.StatusCounts)
	}
	if rep.Errors != 0 {
		t.Fatalf("Errors = %d, want 0: every request drew an HTTP answer", rep.Errors)
	}
	if rep.Requests != ok+bad+unavailable || int64(rep.Requests) != calls.Load() {
		t.Fatalf("Requests = %d, want %d answers (stub saw %d)", rep.Requests, ok+bad+unavailable, calls.Load())
	}
	if rep.Predictions != ok {
		t.Fatalf("Predictions = %d, want the %d 200s", rep.Predictions, ok)
	}

	sr := SoakReport{Report: rep}
	wantRate := float64(bad+unavailable) / float64(ok+bad+unavailable)
	if got := judge(SLO{P99Ms: 60_000, MaxErrorRate: 1}, &sr).ErrorRate; got != wantRate {
		t.Fatalf("soak error rate = %v, want %v", got, wantRate)
	}
	fr := FleetReport{Report: rep}
	if got := judgeFleet(&fr).FailedNonShed; got != unavailable {
		t.Fatalf("fleet failed_non_shed = %d, want the %d 503s", got, unavailable)
	}
}

func TestJudgeFleet(t *testing.T) {
	clean := FleetReport{Report: Report{Requests: 10, StatusCounts: map[string]int{"200": 10}}}
	if v := judgeFleet(&clean); !v.Pass || v.FailedNonShed != 0 {
		t.Fatalf("clean run judged %+v", v)
	}
	dirty := FleetReport{Report: Report{Requests: 10, Errors: 2, StatusCounts: map[string]int{"200": 7, "502": 1, "429": 2}}}
	v := judgeFleet(&dirty)
	if v.Pass || v.FailedNonShed != 3 {
		t.Fatalf("2 transport errors + one 502 judged %+v", v)
	}
	empty := FleetReport{}
	if v := judgeFleet(&empty); v.Pass {
		t.Fatal("zero-request run must not pass")
	}
	unkilled := FleetReport{Report: Report{Requests: 5, StatusCounts: map[string]int{"200": 5}}, KillPID: 12345}
	if v := judgeFleet(&unkilled); v.Pass {
		t.Fatal("undelivered kill signal must fail the verdict")
	}
}

func TestSumSeries(t *testing.T) {
	m := map[string]float64{
		`scout_gw_retries_total{replica="a"}`: 2,
		`scout_gw_retries_total{replica="b"}`: 3,
		"scout_gw_retries_total":              1, // unlabeled form
		`scout_gw_retries_total_other`:        99,
	}
	if got := sumSeries(m, "scout_gw_retries_total"); got != 6 {
		t.Fatalf("sumSeries = %v, want 6 (prefix must not match the _other family)", got)
	}
}

// TestLoadgenFleet drives the -fleet mode end to end against a real
// gateway in front of a real trained replica: the report carries the
// gateway's scout_gw_* telemetry and the zero-failed-non-shed verdict.
func TestLoadgenFleet(t *testing.T) {
	ts := newTestServer(t)
	g, err := gateway.New(gateway.Config{
		Replicas: []gateway.ReplicaConfig{{Name: "r0", Team: "phynet", URL: ts.URL}},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	reqs := corpus(5, 30, 6)
	fr, err := runFleet(gw.Client(), gw.URL, "", 4, 500*time.Millisecond, 0, 0, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Mode != "fleet" {
		t.Fatalf("mode = %q", fr.Mode)
	}
	if fr.Requests == 0 {
		t.Fatal("fleet run drove no traffic")
	}
	if !fr.SLO.Pass || fr.SLO.FailedNonShed != 0 {
		t.Fatalf("healthy fleet failed the SLO: %+v", fr.SLO)
	}
	if len(fr.GatewayMetrics) == 0 {
		t.Fatal("final scrape missing gateway metrics")
	}
	if _, ok := fr.GatewayMetrics[`scout_gw_upstream_requests_total{outcome="ok",replica="r0"}`]; !ok {
		if _, ok := fr.GatewayMetrics[`scout_gw_upstream_requests_total{replica="r0",outcome="ok"}`]; !ok {
			t.Fatalf("scrape has no per-replica upstream series; keys: %v", metricNames(fr.GatewayMetrics))
		}
	}
}
