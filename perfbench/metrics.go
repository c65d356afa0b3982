package main

import (
	"fmt"
	"sort"
)

// summarize checks a finished round and derives its end-to-end metrics.
// Latencies run from each event's due time, so a stall also delays the
// events queued behind it.
func summarize(sk *sink, g *genLog) roundResult {
	v, failed := sk.verdict(g)
	res := roundResult{
		attempted:  len(g.due),
		failed:     v.Failed,
		correct:    v.Correct(),
		metrics:    make(map[string]float64),
		firstFinal: v.FirstFinal,
	}
	res.reordered = v.Reordered
	if v.Failed > 0 || v.Spurious > 0 || v.Reordered > 0 || len(v.BadClasses) > 0 {
		res.notes = append(res.notes, describe(v))
	}
	var final, spec, gap []float64
	var last int64
	for i, f := range failed {
		if f {
			continue
		}
		ff, fs := v.FirstFinal[i], v.FirstSeen[i]
		final = append(final, float64(ff-g.due[i]))
		spec = append(spec, float64(fs-g.due[i]))
		gap = append(gap, float64(ff-fs))
		if ff > last {
			last = ff
		}
	}
	m := res.metrics
	m["final_p50_ms"] = quantile(final, 0.50) / 1e6
	m["final_p95_ms"] = quantile(final, 0.95) / 1e6
	m["final_p99_ms"] = quantile(final, 0.99) / 1e6
	m["spec_p50_ms"] = quantile(spec, 0.50) / 1e6
	if len(g.due) > 0 && last > g.due[0] {
		m["events_per_sec"] = float64(len(final)) / (float64(last-g.due[0]) / 1e9)
	}
	m["core.spec_to_final_p50_ms"] = quantile(gap, 0.50) / 1e6
	return res
}

func describe(v Verdict) string {
	s := fmt.Sprintf("check: %d failed (%d missing final, %d conflicting finals, %d wrong content), %d spurious outputs, %d finals out of emission order",
		v.Failed, v.Missing, v.Conflicting, v.Wrong, v.Spurious, v.Reordered)
	if len(v.BadClasses) > 0 {
		s += fmt.Sprintf(", classes with wrong counts: %v", v.BadClasses)
	}
	return s
}

// layerMetrics derives the per-layer metrics of a traced pass from the
// wrapped calls, Engine.Stats and the sampled Engine.Pressure. wallNs is
// the time the rounds ran; commits and reexec sum over the classifier
// stages.
func layerMetrics(m map[string]float64, l *layers, pp *pressure, events float64, wallNs int64, commits, reexec float64) {
	n := func(c *calls) float64 { return float64(c.n.Load()) }
	ns := func(c *calls) float64 { return float64(c.ns.Load()) }
	m["storage.writes_per_event"] = ratio(n(&l.write), events)
	m["storage.bytes_per_event"] = ratio(float64(l.write.bytes.Load()), events)
	m["storage.write_ms_mean"] = ratio(ns(&l.write), n(&l.write)) / 1e6
	m["storage.busy_share"] = ratio(ns(&l.write), float64(wallNs))
	m["operator.process_us_per_call"] = ratio(ns(&l.process), n(&l.process)) / 1e3
	m["operator.calls_per_commit"] = ratio(n(&l.process), commits)
	m["core.emit_us_per_event"] = ratio(ns(&l.emit), float64(l.emit.items.Load())) / 1e3
	m["core.reexec_per_commit"] = ratio(reexec, commits)
	m["flow.mailbox_depth_p50"] = median(pp.depth)
	m["flow.credit_queued_p50"] = median(pp.queued)
	m["transport.frames_per_event"] = ratio(n(&l.frames), events)
	m["transport.events_per_frame"] = ratio(float64(l.frames.items.Load()), float64(l.data.Load()))
	m["transport.handler_us_per_frame"] = ratio(ns(&l.frames), n(&l.frames)) / 1e3
	m["checkpoint.save_ms_mean"] = ratio(ns(&l.save), n(&l.save)) / 1e6
	m["checkpoint.bytes_per_save"] = ratio(float64(l.save.bytes.Load()), n(&l.save))
	self := l.tr.selfTime()
	for _, layer := range tracedLayers {
		m[layer+".self_us_per_event"] = ratio(float64(self[layer]), events) / 1e3
	}
	l.tr.mu.Lock()
	m["trace.spans"] = float64(l.tr.total)
	l.tr.mu.Unlock()
}

// recoveryMetrics derives the crash_replay recovery figures. A crash's
// recovery time runs from the Crash call to the first final at the sink
// of an event due after it.
func recoveryMetrics(m map[string]float64, crashes []crashRec, firstFinal []int64, g *genLog) {
	var rec, call, scanned, replay []float64
	for _, c := range crashes {
		j := sort.Search(len(g.due), func(i int) bool { return g.due[i] > c.at })
		first := int64(-1)
		for i := j; i < len(firstFinal); i++ {
			if f := firstFinal[i]; f >= 0 && (first < 0 || f < first) {
				first = f
			}
		}
		if first >= 0 {
			rec = append(rec, float64(first-c.at)/1e6)
		}
		call = append(call, float64(c.recoverNs)/1e6)
		scanned = append(scanned, float64(c.logRecords))
		if c.replayNs > 0 {
			replay = append(replay, float64(c.replayEvents)/(float64(c.replayNs)/1e9))
		}
	}
	m["recovery.recovery_ms"] = median(rec)
	m["recovery.recover_call_ms"] = median(call)
	m["recovery.log_records_scanned"] = median(scanned)
	m["recovery.replay_events_per_sec"] = median(replay)
}

func toFloat(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
