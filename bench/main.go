// Command bench is the repository's end-to-end benchmark: five
// deterministic closed-loop workloads over the two paths NetTrails is
// about — maintaining provenance while a network reacts to a base-tuple
// change, and querying it — each reporting the same seven end-to-end
// metrics, and, in a separate traced run, per-layer budgets measured
// from outside by timing calls into each layer's public functions.
// See README.md in this directory.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//	bench                                                  the whole suite, one child per run
//	bench -repeat 3 -sets 2                                noise check against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workload is one deployment plus the round of ops a closed-loop client
// replays against it.
type workload interface {
	// setup builds and converges the deployment, attaches the publisher
	// (and store, and HTTP servers) and runs the warm-up round, ticking
	// clock between the steps.
	setup(clock *calibClock) error
	teardown()
	// round runs the round's ops through rec, in the seeded order.
	round(rec *recorder)
	// check verifies the deployment's state after a round.
	check() []error
	// layers runs the traced passes on a set-up deployment and reports
	// the per-layer metrics this workload exercises.
	layers(rep *layerReport) error
	describe() string
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case wlMaintFlap:
		return newMaintFlap(seed), nil
	case wlMaintDurable:
		return newMaintDurable(seed), nil
	case wlQueryCold, wlQueryHot, wlQueryGateway:
		return newQueryWorkload(name, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setups is how many times an untraced run sets the deployment up; the
// median is reported, and the last one is measured.
const setups = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the one JSON object a run prints as its last line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// runEndToEnd is an untraced run: set up, time one window, report the
// end-to-end metrics. Times are scaled to nominal machine speed (see
// calib.go).
func runEndToEnd(name string, seed int64, seconds float64) (*runResult, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	var setupS, setupRaw []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			w.teardown()
		}
		clock := newCalibClock()
		t0 := time.Now()
		if err := w.setup(clock); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, clock.lap())
		setupRaw = append(setupRaw, time.Since(t0).Seconds())
	}
	defer w.teardown()
	logf("bench: %s seed=%d: %s", name, seed, w.describe())
	logf("bench: set-ups %.3f s at nominal speed, kernel samples left out; %.3f s as measured", setupS, setupRaw)

	runtime.GC()
	win := runWindow(seconds, 3, w, nil)
	lat, raw := sorted(win.scaled), sorted(win.rec.lat)
	ops := float64(len(lat))
	rates := sorted(win.roundRate)
	logf("bench: window %.1f s, %d ops in %d rounds, round ops/s min %.1f median %.1f max %.1f, steal %d ticks",
		win.wall.Seconds(), len(lat), len(rates), rates[0], median(rates), rates[len(rates)-1], win.steal)
	p := tailPercentile(len(lat))
	logf("bench: latency ms p50 %.3f p90 %.3f p%g %.3f max %.3f (%d samples); cpu %.2f ms/op, gc share %.3f",
		percentile(lat, 50), percentile(lat, 90), p, percentile(lat, p), lat[len(lat)-1], len(lat),
		ms(win.cpu)/ops, win.gcCPU/win.allCPU)
	logf("bench: unscaled: p50 %.3f p90 %.3f; speed factor per round %.2f", percentile(raw, 50), percentile(raw, 90), win.factors)
	logf("bench: scaled ops/s per round %.1f", win.roundRate)

	res := &runResult{Attempted: len(lat), Failed: win.rec.failed, Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0 && p >= 90 // fewer than ten samples beyond p90: the window is too short to quote it
	for name, v := range map[string]float64{
		"setup_s":         median(setupS),
		"ops_per_s":       median(win.roundRate),
		"op_p50_ms":       percentile(lat, 50),
		"op_p90_ms":       percentile(lat, 90),
		"allocs_per_op":   float64(win.mem.mallocs) / ops,
		"alloc_kb_per_op": float64(win.mem.bytes) / ops / 1024,
		"peak_rss_mb":     win.peakRSS,
	} {
		res.Metrics[name] = metricValue{v, unitOf(name)}
	}
	return res, nil
}

// layerReport collects what a traced run measures: the spans, the
// per-layer metrics derived from them, and the ops that failed on the
// way.
type layerReport struct {
	seconds float64 // length of one pass: a quarter of a window, never less than a round
	tr      *tracer
	metrics map[string]float64
	factors []float64 // speed factor of every round of every pass (calib.go)
	ops     int
	failed  int
}

// pass runs one short window on w, traced or not.
func (rep *layerReport) pass(w workload, traced bool) windowResult {
	var tr *tracer
	if traced {
		tr = rep.tr
	}
	win := runWindow(rep.seconds, 1, w, tr)
	rep.ops += len(win.rec.lat)
	rep.failed += win.rec.failed
	rep.factors = append(rep.factors, win.factors...)
	return win
}

// tracedPair runs the round untraced and then traced on the same
// deployment, and fills the metrics every workload derives from the
// pair: tracing overhead, CPU per op and the collector's share of it.
func (rep *layerReport) tracedPair(w workload) (plain, traced windowResult) {
	runtime.GC()
	plain = rep.pass(w, false)
	traced = rep.pass(w, true)
	rep.metrics["trace.overhead_ratio"] = mean(traced.scaled) / mean(plain.scaled)
	rep.metrics["runtime.cpu_ms_per_op"] = ms(plain.cpu) / float64(len(plain.rec.lat)) / plain.factor()
	rep.metrics["runtime.gc_cpu_share"] = plain.gcCPU / plain.allCPU
	return plain, traced
}

// runTraced is a traced run: one set-up, short passes with harness-side
// spans, the per-layer metrics, and the spans written to outDir.
func runTraced(name string, seed int64, seconds float64, outDir string) (*runResult, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	if err := w.setup(newCalibClock()); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.teardown()
	logf("bench: %s seed=%d traced: %s", name, seed, w.describe())

	rep := &layerReport{seconds: seconds / 4, tr: newTracer(), metrics: map[string]float64{}}
	if err := w.layers(rep); err != nil {
		return nil, err
	}
	if err := rep.tr.write(outDir, name); err != nil {
		return nil, err
	}
	// Layer times are scaled like the end-to-end ones, each by the samples
	// taken beside it; this is how much slower than nominal the box ran
	// over the passes.
	rep.metrics["host.speed_factor"] = median(rep.factors)
	res := &runResult{Correct: rep.failed == 0, Attempted: rep.ops, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, m := range layerSpecs {
		res.Metrics[m.Name] = metricValue{rep.metrics[m.Name], m.Unit}
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		if _, ok := res.Metrics[n]; !ok {
			return nil, fmt.Errorf("layer metric %s is not in the spec", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		logf("bench:   %-30s %12.4f %s", n, rep.metrics[n], unitOf(n))
	}
	return res, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print one JSON line (default: the whole suite)")
		seed    = flag.Int64("seed", 1, "seed of the op lists")
		seconds = flag.Float64("seconds", runSeconds, "length of the timed window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
		repeat  = flag.Int("repeat", 0, "noise check: runs per set (>= 3)")
		sets    = flag.Int("sets", 2, "noise check: sets of runs to compare")
		out     = flag.String("out", "bench/out", "directory for traces and the suite report")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	var err error
	switch {
	case *repeat > 0:
		err = runNoiseCheck(*name, *seed, *seconds, *repeat, *sets)
	case *name == "":
		err = runSuite(*seed, *seconds, *out)
	default:
		var res *runResult
		if *trace == 1 {
			res, err = runTraced(*name, *seed, *seconds, *out)
		} else {
			res, err = runEndToEnd(*name, *seed, *seconds)
		}
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
		if err == nil && !res.Correct {
			err = fmt.Errorf("%s: %d of %d ops failed", *name, res.Failed, res.Attempted)
		}
	}
	if err != nil {
		logf("bench: %v", err)
		os.Exit(1)
	}
}
