package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"scouts/internal/core"
	"scouts/internal/incident"
	"scouts/internal/metrics"
	"scouts/internal/ml/cpd"
	"scouts/internal/ml/forest"
	"scouts/internal/ml/mlcore"
	"scouts/internal/serving"
	"scouts/internal/text"
	"scouts/internal/topology"
)

// Sweep sizes: how often each in-process measurement repeats per
// incident (the median counts), and how many incidents the expensive
// CPD+ measurements sample.
const (
	sweepReps      = 3
	cpdSample      = 8
	summarizeCap   = 512
	trainCPDParams = 29 // core.Train's default CPD+ permutation count
)

// layerProbe turns a traced run into per-layer metrics.
type layerProbe struct {
	res  *result
	w    *world
	team string
	pack []byte
	refs []answer
}

type memSnap struct{ alloc, gc uint64 }

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{alloc: m.TotalAlloc, gc: uint64(m.NumGC)}
}

// trainPhases splits one TrainAndPublish call by watching its telemetry
// reads: featurization reads densely, then the forests train without a
// single read (the longest silence), then CPD+ featurization reads
// again; whatever follows the last read is pack encoding and the CPD+
// forest.
type trainPhases struct {
	src *sourceStats
	tr  *tracing

	mu             sync.Mutex
	t0, t1         time.Time
	last           time.Time // end of the latest read
	gapFrom, gapTo time.Time // the longest silence between reads
}

func newTrainPhases() *trainPhases {
	tp := &trainPhases{src: &sourceStats{}, tr: &tracing{}}
	tp.tr.on.Store(true)
	tp.src.onCall = tp.mark
	return tp
}

func (tp *trainPhases) mark(start, end time.Time) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if !tp.last.IsZero() && start.Sub(tp.last) > tp.gapTo.Sub(tp.gapFrom) {
		tp.gapFrom, tp.gapTo = tp.last, start
	}
	if end.After(tp.last) {
		tp.last = end
	}
}

func (tp *trainPhases) start(t time.Time) { tp.t0 = t }

// end closes the traced call: the trained Scout keeps the decorated
// source, and its later reads are not training.
func (tp *trainPhases) end(t time.Time) {
	tp.t1 = t
	tp.tr.on.Store(false)
}

// phases returns featurize, forest, cpd and other seconds; they sum to
// the traced call's wall time.
func (tp *trainPhases) phases() (feat, forest, cpd, other float64) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if tp.gapFrom.IsZero() {
		return 0, 0, 0, tp.t1.Sub(tp.t0).Seconds()
	}
	return tp.gapFrom.Sub(tp.t0).Seconds(), tp.gapTo.Sub(tp.gapFrom).Seconds(),
		tp.last.Sub(tp.gapTo).Seconds(), tp.t1.Sub(tp.last).Seconds()
}

// trainMetrics reports the training phases, medians over the traced
// calls.
func (lp *layerProbe) trainMetrics(tps []*trainPhases) {
	var feat, forest, cpdS, other []float64
	for _, tp := range tps {
		f, fo, c, o := tp.phases()
		feat, forest, cpdS, other = append(feat, f), append(forest, fo), append(cpdS, c), append(other, o)
	}
	lp.res.set("train.featurize_s", "s", median(feat))
	lp.res.set("train.forest_s", "s", median(forest))
	lp.res.set("train.cpd_s", "s", median(cpdS))
	lp.res.set("train.other_s", "s", median(other))
}

// cloudsim reports the telemetry reads a window of work made, per
// incident.
func (lp *layerProbe) cloudsim(d sourceSnapshot, incidents int) {
	per := func(n int64) float64 { return float64(n) / float64(max(incidents, 1)) }
	us := func(ns, calls int64) float64 {
		if calls == 0 {
			return 0
		}
		return float64(ns) / 1e3 / float64(calls)
	}
	lp.res.set("cloudsim.series_window_calls_per_incident", "count", per(d.seriesCalls))
	lp.res.set("cloudsim.series_window_us", "us", us(d.seriesNS, d.seriesCalls))
	lp.res.set("cloudsim.window_stats_calls_per_incident", "count", per(d.statsCalls))
	lp.res.set("cloudsim.window_stats_us", "us", us(d.statsNS, d.statsCalls))
	lp.res.set("cloudsim.event_count_calls_per_incident", "count", per(d.eventCalls))
	lp.res.set("cloudsim.event_count_us", "us", us(d.eventNS, d.eventCalls))
	lp.res.set("cloudsim.points_per_incident", "count", per(d.points))
}

// loadMetrics reports what the traced half of a serving run saw at the
// gateway, the replicas, the breaker and the driver.
func (lp *layerProbe) loadMetrics(env *servingEnv, st *stackTrace, plain, traced *loadStats,
	inner, outer sourceSnapshot, mem0, mem1 memSnap, gw0, gw1, rep0, rep1 map[string]float64,
) {
	incidents := traced.incidents
	lp.cloudsim(inner, incidents)
	lp.res.set("faults.breaker_us_per_incident", "us", float64(outer.totalNS-inner.totalNS)/1e3/float64(max(incidents, 1)))

	hop, requests := st.spans.gatewayHop()
	clients := st.spans.clientRequests()
	lp.res.set("gateway.hop_us", "us", float64(hop)/1e3)
	lp.res.set("gateway.attempts_per_request", "ratio", ratio(float64(st.spans.attempts.Load()), float64(clients)))
	hedges := sumSeries(gw1, "scout_gw_hedges_total") - sumSeries(gw0, "scout_gw_hedges_total")
	wins := sumSeries(gw1, "scout_gw_hedge_wins_total") - sumSeries(gw0, "scout_gw_hedge_wins_total")
	lp.res.set("gateway.hedge_rate", "ratio", ratio(hedges, float64(clients)))
	lp.res.set("gateway.hedge_win_rate", "ratio", ratio(wins, hedges))
	lp.res.set("gateway.shed", "count", sumSeries(gw1, "scout_gw_requests_shed_total")-sumSeries(gw0, "scout_gw_requests_shed_total"))
	lp.res.set("faults.breaker_trips", "count", sumSeries(rep1, "scout_breaker_trips_total")-sumSeries(rep0, "scout_breaker_trips_total"))
	if env.stack.gw != nil {
		report("gateway: %d client requests, %d matched to their answering replica span", clients, requests)
	}
	lp.shares(rep0, rep1)

	lp.res.set("driver.late_p99_ms", "ms", quantile(traced.late, 0.99))
	lp.res.set("runtime.alloc_kb_per_incident", "KiB", float64(mem1.alloc-mem0.alloc)/1024/float64(max(incidents, 1)))
	lp.res.set("runtime.gc_per_kincident", "count", float64(mem1.gc-mem0.gc)*1000/float64(max(incidents, 1)))
	base := perIncidentUS(plain.cpu, plain.incidents)
	lp.res.set("trace.overhead_pct", "%", ratio(perIncidentUS(traced.cpu, traced.incidents)-base, base)*100)
}

// shares reports the answer mix from the replicas' own
// scout_predictions_total counters over a window.
func (lp *layerProbe) shares(before, after map[string]float64) {
	delta := func(series string) float64 { return after[series] - before[series] }
	total := sumSeries(after, "scout_predictions_total") - sumSeries(before, "scout_predictions_total")
	lp.res.set("serving.share_rf", "ratio", ratio(delta(`scout_predictions_total{model="rf"}`), total))
	lp.res.set("serving.share_cpd", "ratio", ratio(delta(`scout_predictions_total{model="cpd+"}`), total))
	lp.res.set("serving.share_fallback", "ratio", ratio(delta("scout_prediction_fallbacks_total"), total))
	lp.res.set("serving.share_excluded", "ratio", ratio(delta(`scout_predictions_total{model="exclude-rule"}`), total))
}

// noGateway reports the gateway metrics of a workload that sends
// nothing through a gateway.
func (lp *layerProbe) noGateway() {
	lp.res.set("gateway.hop_us", "us", 0)
	lp.res.set("gateway.attempts_per_request", "ratio", 0)
	lp.res.set("gateway.hedge_rate", "ratio", 0)
	lp.res.set("gateway.hedge_win_rate", "ratio", 0)
	lp.res.set("gateway.shed", "count", 0)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scrape reads a Prometheus text exposition into series → value.
func scrape(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] += v
		}
	}
	return out
}

// sumSeries adds every series of one metric family.
func sumSeries(m map[string]float64, name string) float64 {
	sum := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

func usOf(d time.Duration) float64 { return float64(d) / 1e3 }

// sweep calls into each package's public functions over the held-out
// incidents, single-threaded, on a replica restored from the published
// pack over its own traced wiring. Each measurement repeats sweepReps
// times per incident; the incident's median counts.
func (lp *layerProbe) sweep(batch bool) error {
	w := lp.w
	tr := &tracing{}
	tr.on.Store(true)
	inner, outer := &sourceStats{}, &sourceStats{}
	var windows [][]float64
	capture := false
	src := w.tracedServingSource(tr, inner, outer, func(v []float64) {
		if capture && len(windows) < summarizeCap {
			windows = append(windows, slices.Clone(v))
		}
	})
	store := serving.NewStore()
	store.Put(lp.team, lp.pack)
	srv := newReplicaServer(w, src, store, "sweep")
	if err := srv.Reload(); err != nil {
		return err
	}
	h := srv.Handler()
	sc := srv.Scout()
	fb := sc.Builder()
	rf := sc.Forest()

	perIncident := map[string][]float64{}
	x := make([]float64, len(fb.FeatureNames()))
	var vecs [][]float64
	var stage [5]float64 // the stageTable rows, summed over rf answers
	var rfAnswers int
	for i, in := range w.held {
		req := predictRequest(in)
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		reps := map[string][]float64{}
		rep := func(name string, v float64) { reps[name] = append(reps[name], v) }
		ex := fb.Extract(req.Title, req.Body, req.Components)
		gated := ex.Excluded || ex.Empty
		for r := 0; r < sweepReps; r++ {
			rep("tok", usOf(timed(func() { text.Tokenize(req.Title + "\n" + req.Body) })))
			rep("ext", usOf(timed(func() { fb.Extract(req.Title, req.Body, req.Components) })))
			o0 := outer.totalNS()
			rep("pred", usOf(timed(func() { sc.Predict(req.Title, req.Body, req.Components, req.Time) })))
			rep("pred_tel", float64(outer.totalNS()-o0)/1e3)
			rep("handler", usOf(timed(func() { serve(h, "/v1/predict", body) })))
			if gated {
				continue
			}
			capture = r == 0
			o0 = outer.totalNS()
			rep("feat", usOf(timed(func() { x = fb.FeaturizeInto(x, ex, req.Time) })))
			rep("feat_tel", float64(outer.totalNS()-o0)/1e3)
			capture = false
			rep("cpdin", usOf(timed(func() { fb.CPDInput(ex, req.Time) })))
			rep("fpred", usOf(timed(func() { rf.Predict(x) })))
			rep("fexp", usOf(timed(func() { rf.Explain(x) })))
			var n int
			rep("desc", usOf(timed(func() { n = contributors(w.gen.Topology(), ex) })))
			rep("ncomp", float64(n))
		}
		if !gated {
			vecs = append(vecs, slices.Clone(x))
			reps["feat_self"] = sub(reps["feat"], reps["feat_tel"])
		}
		reps["overhead"] = sub(reps["handler"], reps["pred"])
		for name, v := range reps {
			perIncident[name] = append(perIncident[name], median(v))
		}
		if !gated && lp.refs[i].Model == "rf" {
			H, P, Tp := median(reps["handler"]), median(reps["pred"]), median(reps["pred_tel"])
			F, Tf := median(reps["feat"]), median(reps["feat_tel"])
			FR := median(reps["fpred"]) + median(reps["fexp"])
			stage[0] += H - P
			stage[1] += Tp
			stage[2] += F - Tf
			stage[3] += FR
			stage[4] += P - Tp - (F - Tf) - FR
			rfAnswers++
		}
	}
	for name, metric := range map[string]string{
		"tok": "text.tokenize_us", "ext": "core.extract_us", "pred": "core.predict_us",
		"feat": "core.featurize_us", "feat_self": "core.featurize_self_us", "cpdin": "core.cpd_input_us",
		"fpred": "forest.predict_us", "fexp": "forest.explain_us", "desc": "topology.descendants_us",
	} {
		lp.res.set(metric, "us", mean(perIncident[name]))
	}
	lp.res.set("topology.components_per_incident", "count", mean(perIncident["ncomp"]))

	// Batch paths, in chunks of the serving batch size.
	reqs := make([]core.BatchRequest, len(w.held))
	for i, in := range w.held {
		reqs[i] = batchRequest(in)
	}
	var pbatch, fbatch, over []float64
	for r := 0; r < sweepReps; r++ {
		var total, ftotal time.Duration
		for lo := 0; lo < len(reqs); lo += batchItems {
			hi := min(lo+batchItems, len(reqs))
			d := timed(func() { sc.PredictBatch(reqs[lo:hi]) })
			total += d
			if batch {
				body, err := batchBody(w.held[lo:hi])
				if err != nil {
					return err
				}
				over = append(over, usOf(timed(func() { serve(h, "/v1/predict:batch", body) })-d))
			}
		}
		for lo := 0; lo < len(vecs); lo += batchItems {
			hi := min(lo+batchItems, len(vecs))
			ftotal += timed(func() { rf.PredictProbBatch(vecs[lo:hi], nil) })
		}
		pbatch = append(pbatch, usOf(total)/float64(len(reqs)))
		fbatch = append(fbatch, usOf(ftotal)/float64(max(len(vecs), 1)))
	}
	lp.res.set("core.predict_batch_us_per_item", "us", median(pbatch))
	lp.res.set("forest.predict_batch_us_per_item", "us", median(fbatch))
	if batch {
		lp.res.set("serving.overhead_us", "us", mean(over))
	} else {
		lp.res.set("serving.overhead_us", "us", mean(perIncident["overhead"]))
	}

	// Allocation per request through the replica handler alone.
	var bodies [][]byte
	for lo := 0; lo < len(w.held); lo += batchItems {
		chunk := w.held[lo:min(lo+batchItems, len(w.held))]
		if batch {
			body, err := batchBody(chunk)
			if err != nil {
				return err
			}
			bodies = append(bodies, body)
			continue
		}
		for _, in := range chunk {
			body, err := json.Marshal(predictRequest(in))
			if err != nil {
				return err
			}
			bodies = append(bodies, body)
		}
	}
	path := "/v1/predict"
	if batch {
		path = "/v1/predict:batch"
	}
	m0 := readMem()
	for _, body := range bodies {
		serve(h, path, body)
	}
	m1 := readMem()
	lp.res.set("serving.alloc_kb_per_request", "KiB", float64(m1.alloc-m0.alloc)/1024/float64(len(bodies)))

	lp.summarize(windows)
	if err := lp.cpdMetrics(sc); err != nil {
		return err
	}
	if rfAnswers > 0 {
		lp.stageTable(stage, rfAnswers)
	}
	return lp.forestTrain(sc)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// serve sends one POST through a handler in-process.
func serve(h http.Handler, path string, body []byte) int {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec.Code
}

func batchBody(ins []*incident.Incident) ([]byte, error) {
	var req serving.BatchPredictRequest
	for _, in := range ins {
		req.Items = append(req.Items, predictRequest(in))
	}
	return json.Marshal(req)
}

// contributors counts the components whose telemetry featurization reads
// for an extraction, walking the topology the way the feature layout
// does: cluster scope adds the cluster's switches and servers, DC scope
// the DC's clusters.
func contributors(topo *topology.Topology, ex core.Extraction) int {
	n := 0
	for typ, comps := range ex.ByType {
		for _, c := range comps {
			n++
			switch typ {
			case topology.TypeCluster:
				n += len(topo.DescendantsOfType(c, topology.TypeSwitch))
				n += len(topo.DescendantsOfType(c, topology.TypeServer))
			case topology.TypeDC:
				n += len(topo.DescendantsOfType(c, topology.TypeCluster))
			}
		}
	}
	return n
}

// summarize times metrics.Summarize over telemetry windows featurization
// actually read.
func (lp *layerProbe) summarize(windows [][]float64) {
	var per []float64
	for _, win := range windows {
		var reps []float64
		for r := 0; r < sweepReps; r++ {
			reps = append(reps, float64(timed(func() { metrics.Summarize(win) })))
		}
		per = append(per, median(reps))
	}
	lp.res.set("metrics.summarize_ns", "ns", mean(per))
}

// cpdMetrics times CPD+ on broad incidents: featurization of training
// incidents (what Train pays per broad row) and forced-CPD+ predictions
// of held-out ones.
func (lp *layerProbe) cpdMetrics(sc *core.Scout) error {
	fb := sc.Builder()
	params := cpd.PlusParams{Datasets: fb.DatasetNames(), Detector: cpd.Params{Permutations: trainCPDParams}}
	var feat []float64
	for _, in := range lp.w.train {
		if len(feat) == cpdSample {
			break
		}
		ex := fb.Extract(in.Title, in.Body, in.Components)
		if !ex.Broad || ex.Excluded {
			continue
		}
		feat = append(feat, float64(timed(func() { params.Featurize(fb.CPDInput(ex, in.CreatedAt)) }))/1e6)
	}
	var pred []float64
	for _, in := range lp.w.held {
		if len(pred) == cpdSample {
			break
		}
		ex := fb.Extract(in.Title, in.Body, in.InitialComponents)
		if !ex.Broad || ex.Excluded {
			continue
		}
		pred = append(pred, float64(timed(func() {
			sc.PredictWithModel("cpd+", in.Title, in.Body, in.InitialComponents, in.CreatedAt)
		}))/1e6)
	}
	lp.res.set("cpd.featurize_ms", "ms", mean(feat))
	lp.res.set("cpd.predict_ms", "ms", mean(pred))
	return nil
}

// forestTrain times the main forest's training alone, on the training
// set featurized the way core.Train featurizes it.
func (lp *layerProbe) forestTrain(sc *core.Scout) error {
	fb := sc.Builder()
	d := mlcore.NewDataset(fb.FeatureNames())
	for _, in := range lp.w.train {
		ex := fb.Extract(in.Title, in.Body, in.Components)
		if ex.Excluded || ex.Empty {
			continue
		}
		d.MustAdd(mlcore.Sample{X: fb.Featurize(ex, in.CreatedAt), Y: in.OwnerLabel == lp.team, Time: in.CreatedAt, ID: in.ID})
	}
	var err error
	d0 := timed(func() {
		_, err = forest.Train(d, forest.Params{NumTrees: 100, MaxDepth: 14, Seed: lp.w.seed, Workers: runtime.GOMAXPROCS(0)})
	})
	if err != nil {
		return fmt.Errorf("forest training: %w", err)
	}
	lp.res.set("forest.train_s", "s", d0.Seconds())
	return nil
}

// stageTable prints the predict-CPU split of rf-answered requests
// through one replica handler, single-threaded.
func (lp *layerProbe) stageTable(stage [5]float64, n int) {
	total := 0.0
	for _, v := range stage {
		total += v
	}
	names := []string{
		"HTTP decode/encode + middleware",
		"telemetry reads (breaker + cloudsim)",
		"featurize remainder (topology walks, Summarize, normalization)",
		"forest inference + explanation",
		"extraction, selector and assembly",
	}
	report("predict CPU by stage (rf answers, n=%d, %.1f us per request):", n, total/float64(n))
	for i, name := range names {
		report("  %-64s %6.1f%%  %8.1f us", name, 100*stage[i]/total, stage[i]/float64(n))
	}
}
