package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"scouts/internal/monitoring"
	"scouts/internal/serving"
)

// Workload parameters of the two serving workloads.
const (
	// gwRate is gw-single's open-loop arrival rate (requests/s): about a
	// fifth of what the gateway path sustains over one connection on a
	// 2-core host, so that a host slowdown does not turn into an
	// open-loop backlog.
	gwRate = 100
	// batchItems is replica-batch's incidents per request.
	batchItems = 32
	// servingConns is both serving workloads' connection count. With two
	// requests in flight at one replica their monitoring reads
	// interleave, and the replica's per-dataset breaker can see 32
	// consecutive empty canary windows (components the dataset does not
	// cover) and open: answers turn imputed and differ from the
	// reference. Set it to 2 to see that.
	servingConns = 1
	// batchJobsN is how many distinct batch bodies replica-batch cycles.
	batchJobsN = 64
	// reloadReps is how many times each replica reloads the published
	// pack during set-up; model_load_ms is the median.
	reloadReps = 15
	// setupReps is how many times a run sets up from scratch; setup_s is
	// the median.
	setupReps = 3
)

// servingEnv is one set-up serving workload.
type servingEnv struct {
	w     *world
	store *serving.Store
	stack *stack
	jobs  []job
	team  string
	// per-setup measurements
	trainS, trainCPU float64
	loadsMS          []float64
	train            *trainPhases
}

// setupServing generates the world, trains and publishes the pack,
// brings up the replicas (and gateway) and warms the path up.
func setupServing(o options, batch bool, st *stackTrace) (*servingEnv, error) {
	w, err := newWorld(o.seed)
	if err != nil {
		return nil, err
	}
	env := &servingEnv{w: w, store: serving.NewStore()}
	var src monitoring.DataSource = w.gen.Telemetry()
	if st != nil {
		env.train = newTrainPhases()
		src = traceSource(src, env.train.src, env.train.tr, nil)
	}
	trainer := &serving.Trainer{Store: env.store, Pack: true}
	cpu0, t0 := processCPU(), time.Now()
	if env.train != nil {
		env.train.start(t0)
	}
	scout, _, err := trainer.TrainAndPublish(w.trainOptions(src))
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	env.trainS, env.trainCPU = time.Since(t0).Seconds(), (processCPU() - cpu0).Seconds()
	if env.train != nil {
		env.train.end(time.Now())
	}
	env.team = scout.Team()

	replicas := 2
	if batch {
		replicas = 1
	}
	if env.stack, err = startStack(w, env.store, env.team, replicas, !batch, st); err != nil {
		return nil, err
	}
	for _, r := range env.stack.replicas {
		env.loadsMS = append(env.loadsMS, r.loadMS...)
	}
	perm := order(o.seed, len(w.held))
	if batch {
		env.jobs, err = batchJobs(w, perm, batchJobsN, batchItems)
	} else {
		env.jobs, err = singleJobs(w, perm)
	}
	if err != nil {
		env.close()
		return nil, err
	}
	// Warm-up: the held-out set once, through the workload's path.
	warm := newClient(1)
	defer warm.CloseIdleConnections()
	url := env.url(batch)
	per := len(env.jobs[0].idx)
	for i := range env.jobs[:min(len(env.jobs), (len(w.held)+per-1)/per)] {
		if o, msg := do(context.Background(), warm, url, batch, &env.jobs[i]); o != outcomeOK {
			env.close()
			return nil, fmt.Errorf("warm-up request failed: %s", msg)
		}
	}
	return env, nil
}

func (e *servingEnv) url(batch bool) string {
	if batch {
		return e.stack.target + "/v1/predict:batch"
	}
	return e.stack.target + "/v1/predict"
}

func (e *servingEnv) close() {
	if e.stack != nil {
		if err := e.stack.close(); err != nil {
			report("closing stack: %v", err)
		}
		e.stack = nil
	}
}

func runServing(o options) (*result, error) {
	batch := o.workload == "replica-batch"
	conns := servingConns
	params := map[string]any{
		"world_days": worldDays, "train_days": trainDays, "incidents_per_day": incidentsDay,
		"connections": conns, "setup_reps": setupReps, "request_deadline_ms": ms(requestDeadline),
	}
	if batch {
		params["loop"], params["batch_items"], params["replicas"], params["gateway"] = "closed", batchItems, 1, false
	} else {
		params["loop"], params["rate_per_s"], params["replicas"], params["gateway"] = "open", gwRate, 2, true
	}
	printEnv(o, params)

	var st *stackTrace
	reps := setupReps
	if o.trace {
		st = &stackTrace{tr: &tracing{}, inner: &sourceStats{}, outer: &sourceStats{}}
		st.spans = newSpans(st.tr)
		reps = 1
	}
	var setups, trainS, trainCPU, loads []float64
	var env *servingEnv
	for r := 0; r < reps; r++ {
		if env != nil {
			env.close()
			env = nil
			runtime.GC()
		}
		t0 := time.Now()
		e, err := setupServing(o, batch, st)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
		trainS, trainCPU = append(trainS, e.trainS), append(trainCPU, e.trainCPU)
		loads = append(loads, e.loadsMS...)
	}
	defer env.close()
	report("set-up: setup_s %v train_s %v train_cpu_s %v", setups, trainS, trainCPU)
	heap := heapMiB()

	// Reference answers from an independently restored Scout.
	latest, _ := env.store.Latest()
	ref, err := env.w.restoreReference(latest.Snapshot, env.w.servingSource())
	if err != nil {
		return nil, err
	}
	refs := references(ref, env.w.held)
	attachRefs(env.jobs, refs)
	f1 := heldoutF1(env.team, env.w.held, refs)
	comp := composeOf(ref, env.w.held, refs)
	reportComposition(o.workload, comp)

	client := newClient(conns)
	defer client.CloseIdleConnections()
	url := env.url(batch)
	run := func(d time.Duration) *loadStats {
		if batch {
			return closedLoop(client, url, env.jobs, true, d, conns)
		}
		return openLoop(client, url, env.jobs, gwRate, d, conns)
	}

	res := &result{}
	if !o.trace {
		ls := run(time.Duration(o.seconds) * time.Second)
		res.Attempted, res.Failed = ls.attempted, ls.failed()
		res.Correct = ls.outcomes[outcomeWrong] == 0
		reportLoad(ls)
		reportTail(ls.lat)
		res.set("setup_s", "s", median(setups))
		res.set("latency_p50_ms", "ms", finiteMS(quantile(ls.lat, 0.50)))
		res.set("throughput_ips", "incidents/s", float64(ls.incidents)/ls.elapsed.Seconds())
		res.set("cpu_us_per_incident", "us", perIncidentUS(ls.cpu, ls.incidents))
		res.set("ok_ratio", "ratio", float64(ls.outcomes[outcomeOK])/float64(max(ls.attempted, 1)))
		res.set("train_s", "s", median(trainS))
		res.set("train_cpu_s", "s", median(trainCPU))
		res.set("model_load_ms", "ms", median(loads))
		res.set("heldout_f1", "ratio", f1)
		res.set("heap_mb", "MiB", heap)
		return res, nil
	}

	// Traced run: half the window untraced, half traced, on one stack.
	half := time.Duration(o.seconds) * time.Second / 2
	plain := run(half)
	gw0, rep0 := env.scrape()
	inner0, outer0 := st.inner.snapshot(), st.outer.snapshot()
	st.tr.on.Store(true)
	mem0 := readMem()
	traced := run(half)
	mem1 := readMem()
	st.tr.on.Store(false)
	gw1, rep1 := env.scrape()
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed() + traced.failed()
	res.Correct = plain.outcomes[outcomeWrong] == 0 && traced.outcomes[outcomeWrong] == 0
	reportLoad(traced)

	lp := &layerProbe{res: res, w: env.w, team: env.team, pack: latest.Snapshot, refs: refs}
	lp.trainMetrics([]*trainPhases{env.train})
	lp.loadMetrics(env, st, plain, traced, st.inner.snapshot().plus(inner0, -1), st.outer.snapshot().plus(outer0, -1),
		mem0, mem1, gw0, gw1, rep0, rep1)
	if err := lp.sweep(batch); err != nil {
		return nil, err
	}
	return res, nil
}

// scrape reads the gateway's and the replicas' metrics.
func (e *servingEnv) scrape() (gw, replicas map[string]float64) {
	gw = map[string]float64{}
	if e.stack.gw != nil {
		gw = scrape(e.stack.gw.Metrics())
	}
	replicas = map[string]float64{}
	for _, r := range e.stack.replicas {
		for k, v := range scrape(r.srv.Handler()) {
			replicas[k] += v
		}
	}
	return gw, replicas
}

// finiteMS reports a latency that failed requests pushed to +Inf as the
// request deadline: those requests missed it.
func finiteMS(v float64) float64 {
	if math.IsInf(v, 1) {
		return ms(requestDeadline)
	}
	return v
}

func perIncidentUS(cpu time.Duration, incidents int) float64 {
	if incidents == 0 {
		return 0
	}
	return float64(cpu) / float64(time.Microsecond) / float64(incidents)
}

func heapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// reportTail prints the latency tail. It is not a gated metric: on a
// shared host, stalls of the machine move an open-loop p99 by 2-4x
// between runs of the same code.
func reportTail(lat []float64) {
	n := len(lat)
	report("latency tail (not gated): p90=%.4f ms p95=%.4f ms p99=%.4f ms over %d samples (%d beyond p99)",
		finiteMS(quantile(lat, 0.90)), finiteMS(quantile(lat, 0.95)), finiteMS(quantile(lat, 0.99)), n, n-int(math.Ceil(0.99*float64(n))))
}

// reportComposition prints the request mix and warns when the CPD+
// share sits close enough to the 1% tail that p99 depends on it.
func reportComposition(workload string, c composition) {
	report("composition %s: held-out=%d broad=%d narrow=%d gated=%d shares rf=%.4f cpd=%.4f fallback=%.4f excluded=%.4f",
		workload, c.Held, c.Broad, c.Narrow, c.Gated, c.Shares["rf"], c.Shares["cpd"], c.Shares["fallback"], c.Shares["excluded"])
	if c.Shares["cpd"] >= 0.005 {
		report("WARNING: serving.share_cpd=%.4f is within 2x of the 1%% tail p99 reads; CPD+ answers (~25-35 ms) may set the p99", c.Shares["cpd"])
	}
}

func reportLoad(ls *loadStats) {
	report("load: attempted=%d ok=%d wrong=%d non200=%d shed=%d timeout=%d transport=%d elapsed=%.3fs",
		ls.attempted, ls.outcomes[outcomeOK], ls.outcomes[outcomeWrong], ls.outcomes[outcomeStatus],
		ls.outcomes[outcomeShed], ls.outcomes[outcomeTimeout], ls.outcomes[outcomeTransport], ls.elapsed.Seconds())
	if ls.firstErr != "" {
		report("first failure: %s", ls.firstErr)
	}
}
