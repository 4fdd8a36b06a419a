package main

import (
	"fmt"
	"os"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recorder times the ops of one closed-loop client. With a tracer it
// also opens a root span per op, under which the workload hangs the
// spans of the layers that op went through.
type recorder struct {
	tr     *tracer
	lat    []float64 // one latency per op, ms
	failed int
	root   int // span of the op in flight
	opID   int
	clock  *calibClock // ticked after every op
}

func newRecorder(tr *tracer, clock *calibClock) *recorder {
	return &recorder{tr: tr, root: -1, clock: clock}
}

// op runs and times one operation; an error counts it as failed.
func (r *recorder) op(fn func() error) {
	r.root = r.tr.begin("op", -1, r.opID)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.tr.end(r.root)
	r.lat = append(r.lat, ms(d))
	if err != nil {
		r.fail(err)
	}
	r.root = -1
	r.opID++
	r.clock.tick()
}

// fail counts one failed op or check; the first few are printed.
func (r *recorder) fail(err error) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "bench: FAILED: %v\n", err)
	}
}

// child opens a span under the op in flight.
func (r *recorder) child(name string) int { return r.tr.begin(name, r.root, r.opID) }

// windowResult is what one timed window measured.
type windowResult struct {
	rec       *recorder
	scaled    []float64 // rec.lat, each round's share divided by its speed factor
	factors   []float64 // per round: how much slower than nominal the box ran (calib.go)
	roundRate []float64 // per round: ops / sum of that round's scaled latencies, 1/s
	mem       memCount  // allocation deltas over the op sections only
	wall      time.Duration
	cpu       time.Duration
	gcCPU     float64 // seconds
	allCPU    float64 // seconds
	steal     uint64
	peakRSS   float64
}

// factor is the window's speed factor: the median over its rounds.
func (w windowResult) factor() float64 { return median(w.factors) }

// runWindow replays the workload's round (a fixed op multiset) until
// seconds have passed and at least minRounds rounds are done, checking
// the deployment's state after every round. Checks sit outside op
// latency and outside the allocation counts, inside the wall time, and
// so are the calibration samples interleaved with the ops.
func runWindow(seconds float64, minRounds int, w workload, tr *tracer) windowResult {
	clock := newCalibClock()
	res := windowResult{rec: newRecorder(tr, clock)}
	rec := res.rec
	steal0, cpu0 := stealTicks(), cpuTime()
	gc0, all0 := gcCPU()
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start).Seconds() < seconds; r++ {
		n0, c0 := len(rec.lat), len(clock.samples)
		m0 := readMem()
		w.round(rec)
		m1 := readMem()
		samples := uint64(len(clock.samples) - c0)
		if samples == 0 {
			clock.sample() // a round shorter than calibEvery
		}
		res.mem.mallocs += m1.mallocs - m0.mallocs - samples*calibCost.mallocs
		res.mem.bytes += m1.bytes - m0.bytes - samples*calibCost.bytes
		// A round is scaled by the median of the samples taken inside it.
		factor := clock.factor(c0)
		res.factors = append(res.factors, factor)
		sum := 0.0
		for _, l := range rec.lat[n0:] {
			res.scaled = append(res.scaled, l/factor)
			sum += l / factor
		}
		res.roundRate = append(res.roundRate, float64(len(rec.lat)-n0)/(sum/1000))
		for _, err := range w.check() {
			rec.fail(err)
		}
	}
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	gc1, all1 := gcCPU()
	res.gcCPU, res.allCPU = gc1-gc0, all1-all0
	res.steal = stealTicks() - steal0
	res.peakRSS = peakRSSMB()
	return res
}
