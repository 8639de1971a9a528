package serving

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"scouts/internal/core"
	"scouts/internal/faults"
	"scouts/internal/incident"
	"scouts/internal/monitoring"
)

// chaosSource darkens half the trained Scout's datasets forever and wraps
// the result in circuit breakers, returning the source and the darkened
// names (sorted order keeps the choice deterministic).
func chaosSource(t *testing.T, seed int64) (monitoring.DataSource, []string) {
	t.Helper()
	gen, _, cfg := testEnv(t)
	var names []string
	for _, d := range gen.Telemetry().Datasets() {
		if cfg.UsesDataset(d.Name) {
			names = append(names, d.Name)
		}
	}
	sort.Strings(names)
	dark := names[:len(names)/2]
	var sched faults.Schedule
	for _, n := range dark {
		sched.Blackouts = append(sched.Blackouts, faults.Blackout{Dataset: n, Start: 0, End: faults.Forever})
	}
	chaos := faults.NewChaos(gen.Telemetry(), sched, seed)
	return faults.NewBreaker(chaos, faults.BreakerParams{Trip: 8, Cooldown: 2}), dark
}

// chaosServe publishes the shared clean-trained model and serves it
// against the chaos-wrapped source with the full hardening chain on.
func chaosServe(t *testing.T, src monitoring.DataSource) *Server {
	t.Helper()
	gen, _, _ := testEnv(t)
	store := NewStore()
	store.Put("PhyNet", packFixture(t))
	srv := NewServer(gen.Topology(), src, store, nil)
	srv.MaxInFlight = 4
	srv.RequestTimeout = 30 * time.Second
	srv.Degradation = core.DegradationPolicy{MinCoverage: 0.25}
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestChaosServingUnderBlackout is the fault-injection integration test:
// a Scout serving through a seeded 50% dataset blackout behind circuit
// breakers, hammered concurrently (run under -race). The server must stay
// available — every response is 200 (possibly a fallback verdict) or a
// deliberate 429 shed; never a 5xx, never a dropped connection — and
// /v1/health must own up to the degradation.
func TestChaosServingUnderBlackout(t *testing.T) {
	src, dark := chaosSource(t, 99)
	srv := chaosServe(t, src)
	_, log, _ := testEnv(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ins := log.Incidents[300:]
	const workers = 8
	codes := make([]map[int]int, workers)
	sawHealth := make([]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			codes[w] = map[int]int{}
			for i := w; i < len(ins); i += workers {
				in := ins[i]
				body, _ := json.Marshal(PredictRequest{
					Title: in.Title, Body: in.Body, Components: in.Components, Time: in.CreatedAt,
				})
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("request failed outright: %v", err)
					return
				}
				codes[w][resp.StatusCode]++
				if resp.StatusCode == http.StatusOK {
					var pr PredictResponse
					if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
						t.Errorf("bad response body: %v", err)
					}
					if pr.DataHealth != nil && len(pr.DataHealth.DatasetsDown) > 0 {
						sawHealth[w] = true
					}
				} else {
					io.Copy(io.Discard, resp.Body)
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()

	total := map[int]int{}
	anyHealth := false
	for w := range codes {
		for c, n := range codes[w] {
			total[c] += n
		}
		anyHealth = anyHealth || sawHealth[w]
	}
	for c := range total {
		if c != http.StatusOK && c != http.StatusTooManyRequests {
			t.Fatalf("unexpected status %d under chaos (breakdown %v)", c, total)
		}
	}
	if total[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded: %v", total)
	}
	if !anyHealth {
		t.Fatal("no prediction admitted to the blackout in its data_health")
	}

	// The health endpoint must report degraded with the dark datasets and
	// breaker states on display.
	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status     string                     `json:"status"`
		DataHealth []monitoring.DatasetHealth `json:"data_health"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Fatalf("health status = %q, want degraded", health.Status)
	}
	down := map[string]bool{}
	for _, h := range health.DataHealth {
		if h.Breaker == "" {
			t.Fatalf("breaker state missing from %+v", h)
		}
		if !h.Available {
			down[h.Dataset] = true
		}
	}
	for _, n := range dark {
		if !down[n] {
			t.Fatalf("health hides the %s blackout: %+v", n, health.DataHealth)
		}
	}
}

// TestChaosServingDeterministic reruns an identical request sequence
// against two identically-seeded chaos servers and demands bit-identical
// response bodies: every injected fault is a pure function of (schedule,
// seed, query window), so a chaos run is replayable evidence, not noise.
func TestChaosServingDeterministic(t *testing.T) {
	_, log, _ := testEnv(t)
	ins := log.Incidents[300:340]
	run := func() []string {
		src, _ := chaosSource(t, 99)
		srv := chaosServe(t, src)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		var out []string
		for _, in := range ins {
			body, _ := json.Marshal(PredictRequest{
				Title: in.Title, Body: in.Body, Components: in.Components, Time: in.CreatedAt,
			})
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, resp.Status+" "+string(b))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d diverged between identical seeded runs:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}

// TestShedding verifies the 429 path deterministically: a server with
// MaxInFlight saturated by parked requests sheds the next one immediately
// with a Retry-After hint.
func TestShedding(t *testing.T) {
	srv, _, _ := trainAndServe(t)
	srv.MaxInFlight = 1
	srv.inflight = nil // re-arm in case Handler was built before

	release := make(chan struct{})
	parked := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/park", func(w http.ResponseWriter, _ *http.Request) {
		close(parked)
		<-release
	})
	h := srv.withRecover(srv.withShedding(mux))
	srv.inflight = make(chan struct{}, srv.MaxInFlight)
	ts := httptest.NewServer(h)
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/park")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-parked // the one slot is now held

	resp, err := http.Get(ts.URL + "/park")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	close(release)
	<-done
}

// TestPanicRecovery feeds the recovery middleware a handler that panics
// and expects a 500 — not a crashed test binary.
func TestPanicRecovery(t *testing.T) {
	srv := NewServer(nil, nil, NewStore(), nil)
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("scoring bug") })
	ts := httptest.NewServer(srv.withRecover(mux))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic answered %d, want 500", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error == "" {
		t.Fatal("500 must carry an error body")
	}
}

// TestRequestDeadline pins the 503 deadline path with a handler slower
// than the budget: JSON body, application/json Content-Type (the
// http.TimeoutHandler this replaced content-sniffed its body to
// text/plain), and the deadline propagating into the handler's context.
func TestRequestDeadline(t *testing.T) {
	srv := NewServer(nil, nil, NewStore(), nil)
	srv.RequestTimeout = 20 * time.Millisecond
	mux := http.NewServeMux()
	release := make(chan struct{})
	defer close(release)
	handlerSawDeadline := make(chan struct{})
	mux.HandleFunc("/slow", func(_ http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // the deadline propagates into the handler
			close(handlerSawDeadline)
		case <-release:
		}
	})
	h := srv.withRecover(srv.withDeadline(mux))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overrun answered %d, want 503", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("timeout response Content-Type = %q, want application/json", ct)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("timeout body is not JSON: %v", err)
	}
	if eb.Error == "" {
		t.Fatal("timeout response must carry an error body")
	}
	select {
	case <-handlerSawDeadline:
	case <-time.After(2 * time.Second):
		t.Fatal("handler context never expired after the 503 was sent")
	}
	if got := srv.tel.timeouts.Value(); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
}

// TestDeadlinePanicPropagates pins that a panic inside the deadline
// goroutine is re-raised on the serving goroutine and still answers a
// JSON 500 through the recovery middleware.
func TestDeadlinePanicPropagates(t *testing.T) {
	srv := NewServer(nil, nil, NewStore(), nil)
	srv.RequestTimeout = time.Second
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	ts := httptest.NewServer(srv.withRecover(srv.withDeadline(mux)))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic under deadline answered %d, want 500", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
}

// TestDegradationOverHTTP drives a full-blackout server with a coverage
// floor: answers must be fallback verdicts that explain themselves.
func TestDegradationOverHTTP(t *testing.T) {
	gen, logTrace, cfg := testEnv(t)
	var sched faults.Schedule
	for _, d := range gen.Telemetry().Datasets() {
		if cfg.UsesDataset(d.Name) {
			sched.Blackouts = append(sched.Blackouts, faults.Blackout{Dataset: d.Name, Start: 0, End: faults.Forever})
		}
	}
	srv := chaosServe(t, faults.NewChaos(gen.Telemetry(), sched, 1))
	srv.Degradation = core.DegradationPolicy{MinCoverage: 0.5}
	if err := srv.Reload(); err != nil { // re-apply the tightened policy
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var in *incident.Incident
	for _, cand := range logTrace.Incidents[300:] {
		if p := srv.PredictIncident(cand); p.Model != "exclude-rule" && len(p.Components) > 0 {
			in = cand
			break
		}
	}
	if in == nil {
		t.Fatal("no suitable incident")
	}
	body, _ := json.Marshal(PredictRequest{Title: in.Title, Body: in.Body, Components: in.Components, Time: in.CreatedAt})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded predict answered %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Verdict != string(core.VerdictFallback) {
		t.Fatalf("full blackout under a coverage floor must fall back, got %+v", pr)
	}
	if pr.DataHealth == nil || pr.DataHealth.DatasetCoverage != 0 {
		t.Fatalf("fallback must carry its data health: %+v", pr.DataHealth)
	}
}
