package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"

	"scouts/internal/cloudsim"
	"scouts/internal/core"
	"scouts/internal/faults"
	"scouts/internal/incident"
	"scouts/internal/metrics"
	"scouts/internal/monitoring"
	"scouts/internal/serving"
)

// World parameters shared by every workload: 120 synthetic days at 10
// incidents a day; the Scout trains on the first 90 and is asked about
// the 30 that follow (newer than anything it saw, as in the paper's §7).
const (
	worldDays    = 120
	trainDays    = 90
	incidentsDay = 10
)

// world is one fixed-seed synthetic cloud and its incident trace, split
// into the training prefix and the held-out suffix the requests come from.
type world struct {
	seed  int64
	gen   *cloudsim.Generator
	cfg   *core.Config
	train []*incident.Incident
	held  []*incident.Incident
}

func newWorld(seed int64) (*world, error) {
	return buildWorld(seed, worldDays, trainDays, incidentsDay)
}

// buildWorld generates days of incidents at perDay and splits them at
// day trainUntil.
func buildWorld(seed int64, days, trainUntil int, perDay float64) (*world, error) {
	gen := cloudsim.New(cloudsim.Params{Seed: seed, Days: days, IncidentsPerDay: perDay})
	trace := gen.Generate()
	cfg, err := core.ParseConfig(core.DefaultPhyNetConfig)
	if err != nil {
		return nil, err
	}
	w := &world{seed: seed, gen: gen, cfg: cfg}
	for _, in := range trace.Incidents {
		if in.CreatedAt < float64(trainUntil*24) {
			w.train = append(w.train, in)
		} else {
			w.held = append(w.held, in)
		}
	}
	if len(w.train) == 0 || len(w.held) == 0 {
		return nil, fmt.Errorf("world seed %d: %d training and %d held-out incidents", seed, len(w.train), len(w.held))
	}
	return w, nil
}

// trainOptions are scoutd's boot-time training options over src.
func (w *world) trainOptions(src monitoring.DataSource) core.TrainOptions {
	return core.TrainOptions{
		Config:    w.cfg,
		Topology:  w.gen.Topology(),
		Source:    src,
		Incidents: w.train,
		Seed:      w.seed,
		Workers:   runtime.GOMAXPROCS(0),
	}
}

// servingSource is the replica wiring scoutd uses: monitoring reads go
// through a per-dataset circuit breaker with default parameters.
func (w *world) servingSource() monitoring.DataSource {
	return faults.NewBreaker(w.gen.Telemetry(), faults.BreakerParams{})
}

// tracedServingSource is servingSource with a decorator on either side
// of the breaker: inner sees the cloudsim reads, outer everything the
// Scout asks for.
func (w *world) tracedServingSource(tr *tracing, inner, outer *sourceStats, onSeries func([]float64)) monitoring.DataSource {
	breaker := faults.NewBreaker(traceSource(w.gen.Telemetry(), inner, tr, nil), faults.BreakerParams{})
	return traceSource(breaker, outer, tr, onSeries)
}

// scoutdDegradation is scoutd's -min-coverage default.
var scoutdDegradation = core.DegradationPolicy{MinCoverage: 0.25}

// restoreReference restores the published pack over its own serving
// wiring, independent of every replica: the oracle the HTTP answers are
// checked against.
func (w *world) restoreReference(pack []byte, src monitoring.DataSource) (*core.Scout, error) {
	s, err := core.Restore(pack, w.gen.Topology(), src)
	if err != nil {
		return nil, fmt.Errorf("restoring reference scout: %w", err)
	}
	s.SetDegradationPolicy(scoutdDegradation)
	return s, nil
}

// predictRequest is the request body for one incident: what the incident
// manager knows when the incident is created.
func predictRequest(in *incident.Incident) serving.PredictRequest {
	return serving.PredictRequest{
		Title: in.Title, Body: in.Body, Components: in.InitialComponents, Time: in.CreatedAt,
	}
}

func batchRequest(in *incident.Incident) core.BatchRequest {
	return core.BatchRequest{Title: in.Title, Body: in.Body, Components: in.InitialComponents, Time: in.CreatedAt}
}

// answer is the part of a prediction the correctness gate compares:
// verdict, model, exact confidence bits, components, explanation and
// data health.
type answer struct {
	Verdict     string
	Model       string
	Confidence  uint64
	Components  []string
	Explanation string
	Health      *serving.DataHealthInfo
}

func answerOf(p core.Prediction) answer {
	a := answer{
		Verdict: string(p.Verdict), Model: p.Model, Confidence: math.Float64bits(p.Confidence),
		Components: p.Components, Explanation: p.Explanation,
	}
	if h := p.Health; h != nil {
		a.Health = &serving.DataHealthInfo{
			ImputedFraction: h.ImputedFraction(), DatasetCoverage: h.DatasetCoverage(),
			DatasetsDown: h.DatasetsDown, MaxStalenessHours: h.MaxStaleness,
		}
	}
	return a.normalized()
}

func answerOfResponse(r *serving.PredictResponse) answer {
	return answer{
		Verdict: r.Verdict, Model: r.Model, Confidence: math.Float64bits(r.Confidence),
		Components: r.Components, Explanation: r.Explanation, Health: r.DataHealth,
	}.normalized()
}

// normalized maps empty lists to nil: the wire format omits them.
func (a answer) normalized() answer {
	if len(a.Components) == 0 {
		a.Components = nil
	}
	if a.Health != nil && len(a.Health.DatasetsDown) == 0 {
		h := *a.Health
		h.DatasetsDown = nil
		a.Health = &h
	}
	return a
}

func (a answer) equal(b answer) bool {
	if a.Verdict != b.Verdict || a.Model != b.Model || a.Confidence != b.Confidence ||
		a.Explanation != b.Explanation || !slices.Equal(a.Components, b.Components) {
		return false
	}
	if (a.Health == nil) != (b.Health == nil) {
		return false
	}
	if a.Health == nil {
		return true
	}
	x, y := a.Health, b.Health
	return math.Float64bits(x.ImputedFraction) == math.Float64bits(y.ImputedFraction) &&
		math.Float64bits(x.DatasetCoverage) == math.Float64bits(y.DatasetCoverage) &&
		math.Float64bits(x.MaxStalenessHours) == math.Float64bits(y.MaxStalenessHours) &&
		slices.Equal(x.DatasetsDown, y.DatasetsDown)
}

// references answers every held-out incident through the single-item
// path of s.
func references(s *core.Scout, held []*incident.Incident) []answer {
	out := make([]answer, len(held))
	for i, in := range held {
		r := predictRequest(in)
		out[i] = answerOf(s.Predict(r.Title, r.Body, r.Components, r.Time))
	}
	return out
}

// heldoutF1 is the Scout's F1 for its own team over the usable answers.
func heldoutF1(team string, held []*incident.Incident, ans []answer) float64 {
	var c metrics.Confusion
	for i, a := range ans {
		if a.Verdict == string(core.VerdictFallback) {
			continue
		}
		c.Add(a.Verdict == string(core.VerdictResponsible), held[i].OwnerLabel == team)
	}
	return c.F1()
}

// composition describes a workload's request mix: held-out incidents by
// scope and the reference answers' shares by answering model.
type composition struct {
	Held, Broad, Narrow, Gated int
	Shares                     map[string]float64
}

func composeOf(s *core.Scout, held []*incident.Incident, ans []answer) composition {
	c := composition{Held: len(held), Shares: map[string]float64{}}
	for i, in := range held {
		ex := s.Builder().Extract(in.Title, in.Body, in.InitialComponents)
		switch {
		case ex.Excluded || ex.Empty:
			c.Gated++
		case ex.Broad:
			c.Broad++
		default:
			c.Narrow++
		}
		c.Shares[shareKey(ans[i])] += 1 / float64(len(held))
	}
	return c
}

// shareKey buckets an answer the way the serving.share_* metrics do.
func shareKey(a answer) string {
	switch {
	case a.Verdict == string(core.VerdictExcluded):
		return "excluded"
	case a.Verdict == string(core.VerdictFallback):
		return "fallback"
	case a.Model == "cpd+":
		return "cpd"
	default:
		return "rf"
	}
}

// order is a seeded permutation of n request indices.
func order(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed ^ 0x5ca1ab1e)).Perm(n)
}
