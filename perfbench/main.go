// Command perfbench is the repository benchmark. It drives three seeded
// in-process workloads through the public API of internal/core, checks
// every sink output against values derived from the generated keys, and
// prints one JSON result line:
//
//	go run . --workload spec_chain --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the line holds the end-to-end metrics; with --trace 1
// the run makes an untraced pass and then a traced one, and reports the
// per-layer metrics of the traced pass plus the tracing overhead.
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer list the reported metrics in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"final_p50_ms", "ms"},
	{"spec_p50_ms", "ms"},
	{"events_per_sec", "events/s"},
	{"heap_peak_mb", "MB"},
	{"setup_s", "s"},
}

// tails are printed to standard error only: on a shared 2-vCPU host their
// run-to-run spread is wider than any bound a gate could use.
var tails = []metricDef{
	{"final_p95_ms", "ms"},
	{"final_p99_ms", "ms"},
}

var perLayer = []metricDef{
	{"storage.writes_per_event", "count"},
	{"storage.bytes_per_event", "B"},
	{"storage.write_ms_mean", "ms"},
	{"storage.busy_share", "ratio"},
	{"operator.process_us_per_call", "us"},
	{"operator.calls_per_commit", "ratio"},
	{"core.emit_us_per_event", "us"},
	{"core.reexec_per_commit", "ratio"},
	{"core.spec_to_final_p50_ms", "ms"},
	{"core.reordered_finals", "count"},
	{"flow.mailbox_depth_p50", "events"},
	{"flow.credit_queued_p50", "events"},
	{"transport.frames_per_event", "ratio"},
	{"transport.events_per_frame", "ratio"},
	{"transport.handler_us_per_frame", "us"},
	{"checkpoint.save_ms_mean", "ms"},
	{"checkpoint.bytes_per_save", "B"},
	{"recovery.recovery_ms", "ms"},
	{"recovery.recover_call_ms", "ms"},
	{"recovery.log_records_scanned", "count"},
	{"recovery.replay_events_per_sec", "events/s"},
	{"source.gen_late_p50_ms", "ms"},
	{"core.self_us_per_event", "us"},
	{"operator.self_us_per_event", "us"},
	{"storage.self_us_per_event", "us"},
	{"checkpoint.self_us_per_event", "us"},
	{"transport.self_us_per_event", "us"},
	{"recovery.self_us_per_event", "us"},
	{"trace.overhead_pct", "%"},
}

// primary is the end-to-end metric each workload is built to move; the
// tracing overhead is its change from the untraced to the traced pass.
var primary = map[string]struct {
	name   string
	higher bool
}{
	"spec_chain":      {"final_p50_ms", false},
	"bridge_saturate": {"events_per_sec", true},
	"crash_replay":    {"final_p50_ms", false},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "spec_chain, bridge_saturate or crash_replay")
	seed := flag.Uint64("seed", 1, "seed of the generated keys")
	seconds := flag.Int("seconds", 10, "length of the measured load, in seconds")
	traced := flag.Int("trace", 0, "1: untraced pass, then a traced pass reporting per-layer metrics")
	nospec := flag.Bool("nospec", false, "spec_chain without speculation (reference runs only)")
	spans := flag.String("spans", ".bench_build/spans", "directory for the traced pass's spans")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(config{workload: *name, seed: *seed, length: time.Duration(*seconds) * time.Second, nospec: *nospec}, *traced == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(cfg config, traced bool, spanDir string) (result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.length < time.Second {
		return result{}, errors.New("--seconds must be at least 1")
	}
	base, err := runPass(w, cfg, nil)
	if err != nil {
		return result{}, err
	}
	report(cfg.workload+" untraced", base)
	res := result{Correct: base.correct, Attempted: base.attempted, Failed: base.failed, Metrics: map[string]value{}}
	if !traced {
		for _, d := range endToEnd {
			res.Metrics[d.name] = value{base.metrics[d.name], d.unit}
		}
		return res, nil
	}
	l := newLayers()
	tr, err := runPass(w, cfg, l)
	if err != nil {
		return result{}, err
	}
	p := primary[cfg.workload]
	before, after := base.metrics[p.name], tr.metrics[p.name]
	if p.higher {
		before, after = after, before
	}
	tr.metrics["trace.overhead_pct"] = (ratio(after, before) - 1) * 100
	report(cfg.workload+" traced", tr)
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl.gz", cfg.workload, cfg.seed))
	if err := l.tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "spans: %d recorded, the first %d written to %s\n", int(tr.metrics["trace.spans"]), len(l.tr.spans), path)
	res.Correct = res.Correct && tr.correct
	res.Attempted += tr.attempted
	res.Failed += tr.failed
	for _, d := range perLayer {
		res.Metrics[d.name] = value{tr.metrics[d.name], d.unit}
	}
	return res, nil
}

// report prints a pass's outcome and every metric it measured to
// standard error.
func report(title string, p passResult) {
	fmt.Fprintf(os.Stderr, "== %s: attempted %d, failed %d, correct %t\n", title, p.attempted, p.failed, p.correct)
	for _, n := range p.notes {
		fmt.Fprintln(os.Stderr, "   ", n)
	}
	for _, defs := range [][]metricDef{endToEnd, tails, perLayer} {
		for _, d := range defs {
			if v, ok := p.metrics[d.name]; ok {
				fmt.Fprintf(os.Stderr, "   %-34s %14.6g %s\n", d.name, v, d.unit)
			}
		}
	}
}
