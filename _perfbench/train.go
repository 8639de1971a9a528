package main

import (
	"fmt"
	"runtime"
	"time"

	"scouts/internal/core"
	"scouts/internal/monitoring"
	"scouts/internal/serving"
)

// Train workload parameters.
const (
	// trainMinReps is the fewest train → reload → score rounds a run
	// makes, however short --seconds is; the reported times are medians.
	trainMinReps = 3
	// trainSetupReps is how many times the world is generated; setup_s
	// is the median.
	trainSetupReps = 15
	// scorePasses is how many times each round scores the held-out set
	// through each path.
	scorePasses = 3
)

// trainRound is one TrainAndPublish → Server.Reload → held-out scoring
// round and what it measured.
type trainRound struct {
	trainS, trainCPU float64
	trainMem         [2]memSnap // around TrainAndPublish
	loadMS           []float64  // each Server.Reload of the pack
	single           []answer   // restored Scout, single path
	singleMS         []float64  // per incident
	batchS           float64    // wall time of the batch passes
	scoreCPU         time.Duration
	failed           int
	firstErr         string
	shares           [2]map[string]float64 // replica metrics around scoring
	scout            *core.Scout           // the restored Scout
	pack             []byte
	team             string
}

func runTrain(o options) (*result, error) {
	printEnv(o, map[string]any{
		"world_days": worldDays, "train_days": trainDays, "incidents_per_day": incidentsDay,
		"min_rounds": trainMinReps, "setup_reps": trainSetupReps, "batch_items": batchItems,
	})
	var setups []float64
	var w *world
	for r := 0; r < trainSetupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = newWorld(o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	heap := heapMiB()

	var rounds []*trainRound
	var phases []*trainPhases
	var f1 float64
	res := &result{Correct: true}
	start := time.Now()
	for r := 0; r < trainMinReps || time.Since(start) < time.Duration(o.seconds)*time.Second; r++ {
		// A traced run keeps its first round untraced, for the overhead.
		var tp *trainPhases
		if o.trace && r > 0 {
			tp = newTrainPhases()
			phases = append(phases, tp)
		}
		rd, err := trainOnce(w, tp)
		if err != nil {
			return nil, err
		}
		res.Attempted += 2 * scorePasses * len(w.held)
		res.Failed += rd.failed
		if rd.firstErr != "" {
			report("round %d: %s", r, rd.firstErr)
		}
		if r == 0 {
			f1 = heldoutF1(rd.team, w.held, rd.single)
			reportComposition(o.workload, composeOf(rd.scout, w.held, rd.single))
		} else if g := heldoutF1(rd.team, w.held, rd.single); g != f1 {
			res.Failed++
			report("round %d: held-out F1 %v differs from round 0's %v", r, g, f1)
		}
		rounds = append(rounds, rd)
	}
	res.Correct = res.Failed == 0

	var trainS, trainCPU, loads, lat []float64
	var batchS float64
	var scoreCPU time.Duration
	for _, rd := range rounds {
		trainS, trainCPU, loads = append(trainS, rd.trainS), append(trainCPU, rd.trainCPU), append(loads, rd.loadMS...)
		lat = append(lat, rd.singleMS...)
		batchS += rd.batchS
		scoreCPU += rd.scoreCPU
	}
	report("rounds: train_s %v train_cpu_s %v", trainS, trainCPU)
	scored := 2 * scorePasses * len(w.held) * len(rounds)
	if !o.trace {
		res.set("setup_s", "s", median(setups))
		res.set("latency_p50_ms", "ms", quantile(lat, 0.50))
		res.set("throughput_ips", "incidents/s", float64(scorePasses*len(w.held)*len(rounds))/batchS)
		res.set("cpu_us_per_incident", "us", perIncidentUS(scoreCPU, scored))
		res.set("ok_ratio", "ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted))
		res.set("train_s", "s", median(trainS))
		res.set("train_cpu_s", "s", median(trainCPU))
		res.set("model_load_ms", "ms", median(loads))
		res.set("heldout_f1", "ratio", f1)
		res.set("heap_mb", "MiB", heap)
		reportTail(lat)
		return res, nil
	}

	lp := &layerProbe{res: res, w: w, team: rounds[0].team, pack: rounds[0].pack, refs: rounds[0].single}
	lp.trainMetrics(phases)
	var reads sourceSnapshot
	for _, tp := range phases {
		reads = reads.plus(tp.src.snapshot(), 1)
	}
	lp.cloudsim(reads, len(w.train)*len(phases))
	lp.noGateway()
	lp.shares(rounds[0].shares[0], rounds[0].shares[1])
	lp.res.set("faults.breaker_us_per_incident", "us", 0)
	lp.res.set("faults.breaker_trips", "count", sumSeries(rounds[0].shares[1], "scout_breaker_trips_total"))
	lp.res.set("driver.late_p99_ms", "ms", 0)
	var traced []float64
	for _, rd := range rounds[1:] {
		traced = append(traced, rd.trainCPU)
	}
	lp.res.set("trace.overhead_pct", "%", ratio(median(traced)-rounds[0].trainCPU, rounds[0].trainCPU)*100)
	mem := rounds[0].trainMem
	lp.res.set("runtime.alloc_kb_per_incident", "KiB", float64(mem[1].alloc-mem[0].alloc)/1024/float64(len(w.train)))
	lp.res.set("runtime.gc_per_kincident", "count", float64(mem[1].gc-mem[0].gc)*1000/float64(len(w.train)))
	if err := lp.sweep(false); err != nil {
		return nil, err
	}
	return res, nil
}

// trainOnce trains and publishes a pack, reloads it into a server with
// scoutd's knobs, and scores the held-out incidents three ways: on the
// trained Scout, and on the restored one through the single and the
// batch path. All three must agree exactly.
func trainOnce(w *world, tp *trainPhases) (*trainRound, error) {
	rd := &trainRound{}
	store := serving.NewStore()
	trainer := &serving.Trainer{Store: store, Pack: true}
	var src monitoring.DataSource = w.gen.Telemetry()
	if tp != nil {
		src = traceSource(src, tp.src, tp.tr, nil)
	}
	rd.trainMem[0] = readMem()
	cpu0, t0 := processCPU(), time.Now()
	if tp != nil {
		tp.start(t0)
	}
	trained, _, err := trainer.TrainAndPublish(w.trainOptions(src))
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	rd.trainS, rd.trainCPU = time.Since(t0).Seconds(), (processCPU() - cpu0).Seconds()
	rd.trainMem[1] = readMem()
	if tp != nil {
		tp.end(time.Now())
	}
	trained.SetDegradationPolicy(scoutdDegradation)

	srv := newReplicaServer(w, w.servingSource(), store, "train")
	for r := 0; r < reloadReps; r++ {
		ms, err := timedReload(srv)
		if err != nil {
			return nil, err
		}
		rd.loadMS = append(rd.loadMS, ms)
	}
	restored := srv.Scout()
	want := references(trained, w.held)
	h := srv.Handler()
	rd.shares[0] = scrape(h)

	reqs := make([]core.BatchRequest, len(w.held))
	for i, in := range w.held {
		reqs[i] = batchRequest(in)
	}
	cpu1 := processCPU()
	for pass := 0; pass < scorePasses; pass++ {
		single := make([]answer, len(w.held))
		for i, in := range w.held {
			r := predictRequest(in)
			t := time.Now()
			p := restored.Predict(r.Title, r.Body, r.Components, r.Time)
			rd.singleMS = append(rd.singleMS, msSince(t))
			single[i] = answerOf(p)
			if !single[i].equal(want[i]) {
				rd.fail(fmt.Sprintf("incident %s: restored Scout answered %+v, trained Scout %+v", in.ID, single[i], want[i]))
			}
		}
		tb := time.Now()
		var batch []core.Prediction
		for lo := 0; lo < len(reqs); lo += batchItems {
			batch = append(batch, restored.PredictBatch(reqs[lo:min(lo+batchItems, len(reqs))])...)
		}
		rd.batchS += time.Since(tb).Seconds()
		for i, p := range batch {
			if a := answerOf(p); !a.equal(single[i]) {
				rd.fail(fmt.Sprintf("incident %s: batch path answered %+v, single path %+v", w.held[i].ID, a, single[i]))
			}
		}
		rd.single = single
	}
	rd.scoreCPU = processCPU() - cpu1
	rd.shares[1] = scrape(h)
	latest, _ := store.Latest()
	rd.pack = latest.Snapshot
	rd.team, rd.scout = trained.Team(), restored
	return rd, nil
}

func (rd *trainRound) fail(msg string) {
	rd.failed++
	if rd.firstErr == "" {
		rd.firstErr = msg
	}
}
