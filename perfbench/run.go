package main

import (
	"fmt"
	"time"

	"streammine/internal/core"
	"streammine/internal/graph"
)

// roundResult is what one round yields.
type roundResult struct {
	attempted, failed int
	correct           bool
	metrics           map[string]float64 // end-to-end and per-round per-layer values
	firstFinal        []int64            // per source event: first final arrival (-1: none)
	notes             []string
	setups            []float64 // build times, s
	commits, reexec   float64   // summed Stats of the classifier stages
	wallNs            int64     // load plus drain
	reordered         int       // finals out of emission order (Verdict.Reordered)
}

// passResult is one measured pass of a workload: all its rounds.
type passResult struct {
	attempted, failed int
	correct           bool
	metrics           map[string]float64
	notes             []string
}

// runPass runs a workload's rounds. Each metric is the median over the
// rounds; set-up time is the median over every build. With l set, the
// wrappers record the per-layer figures across all rounds.
func runPass(w workload, cfg config, l *layers) (passResult, error) {
	p := passResult{correct: true, metrics: make(map[string]float64)}
	keys := keyStream(cfg.seed, cfg.workload)
	perRound := make(map[string][]float64)
	var setups []float64
	var pr pressure
	var commits, reexec float64
	var wall int64
	var reordered int
	for i := 0; i < rounds; i++ {
		rr, err := runRound(w, cfg, l, cfg.length/rounds, keys, &pr)
		if err != nil {
			return p, fmt.Errorf("round %d: %w", i+1, err)
		}
		p.attempted += rr.attempted
		p.failed += rr.failed
		p.correct = p.correct && rr.correct
		for _, n := range rr.notes {
			p.notes = append(p.notes, fmt.Sprintf("round %d: %s", i+1, n))
		}
		for k, v := range rr.metrics {
			perRound[k] = append(perRound[k], v)
		}
		setups = append(setups, rr.setups...)
		commits += rr.commits
		reexec += rr.reexec
		wall += rr.wallNs
		reordered += rr.reordered
	}
	for k, vs := range perRound {
		p.metrics[k] = median(vs)
	}
	p.metrics["setup_s"] = median(setups)
	p.metrics["core.reordered_finals"] = float64(reordered)
	if l != nil {
		layerMetrics(p.metrics, l, &pr, float64(p.attempted), wall, commits, reexec)
	}
	return p, nil
}

// runRound builds a fresh system, drives it for length, waits for the
// last final and checks the sink.
func runRound(w workload, cfg config, l *layers, length time.Duration, keys func() uint64, pr *pressure) (roundResult, error) {
	clk := clock{time.Now()}
	sk := newSink(clk, w.arrivals*int(length/time.Millisecond)/1000+4096)
	heap := startHeapProbe()
	var setups []float64
	var sys *system
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		s, err := w.build(cfg, l, sk)
		if err != nil {
			return roundResult{}, fmt.Errorf("set up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			s.close()
		} else {
			sys = s
		}
	}
	defer sys.close()
	stopPressure := func() {}
	if l != nil {
		stopPressure = pr.sample(sys.engs)
	}
	r := &roundCtx{cfg: cfg, l: l, sys: sys, sk: sk, gen: &genLog{}, clk: clk, length: length, keys: keys}
	start := clk.now()
	err := w.drive(r)
	heap.read()
	if err == nil {
		sk.await(len(r.gen.due))
	}
	heap.read()
	wall := clk.now() - start
	stopPressure()
	if err != nil {
		return roundResult{}, err
	}
	res := summarize(sk, r.gen)
	res.setups, res.wallNs = setups, wall
	res.metrics["heap_peak_mb"] = heap.mb()
	for i, e := range sys.engs {
		if err := e.Err(); err != nil {
			res.correct = false
			res.notes = append(res.notes, "engine error: "+err.Error())
		}
		c, x := committed(e, sys.stages[i])
		res.commits += c
		res.reexec += x
	}
	if len(r.gen.late) > 0 {
		res.metrics["source.gen_late_p50_ms"] = median(toFloat(r.gen.late)) / 1e6
	}
	if len(r.crashes) > 0 {
		recoveryMetrics(res.metrics, r.crashes, res.firstFinal, r.gen)
	}
	return res, nil
}

// committed sums Stats over the given stages: commits and re-executions.
func committed(eng *core.Engine, stages []graph.NodeID) (commits, reexec float64) {
	for _, id := range stages {
		st, err := eng.Stats(id)
		if err != nil {
			continue
		}
		commits += float64(st.Committed)
		reexec += float64(st.Reexecuted)
	}
	return commits, reexec
}
