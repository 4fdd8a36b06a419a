package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/rel"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0},    // 9.5 samples beyond the median
		{20, 50},   // exactly ten beyond the median
		{99, 75},   // 9.9 beyond p90
		{100, 90},  // the smallest window that can quote p90
		{360, 95},  // 18 beyond p95, 3.6 beyond p99
		{1000, 99}, // exactly ten beyond p99
		{20480, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(asc, 50); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := percentile(asc, 90); got != 9 {
		t.Errorf("p90 = %g, want 9", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// The acceptance check computes spreads with Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{2, 4, 4, 5, 9})
	if q1 != 3 || q2 != 4 || q3 != 7 {
		t.Errorf("quartiles = %g %g %g, want 3 4 7", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
}

// One traced op: the self times of its spans — the layer shares — must
// sum to the op's latency, whatever the nesting.
func TestSelfTimesSumToOpLatency(t *testing.T) {
	us := func(n int64) int64 { return n * int64(time.Microsecond) }
	spans := []span{
		{Name: "op", Start: us(0), End: us(100), Parent: -1},
		{Name: "server.publish", Start: us(10), End: us(30), Parent: 0},
		{Name: "server.publish", Start: us(40), End: us(70), Parent: 0},
		{Name: "provstore.fsync", Start: us(45), End: us(55), Parent: 2},
	}
	self := selfTimes(spans, 0)
	want := map[string]time.Duration{
		"op":              50 * time.Microsecond,
		"server.publish":  40 * time.Microsecond,
		"provstore.fsync": 10 * time.Microsecond,
	}
	var sum time.Duration
	for name, d := range self {
		if d != want[name] {
			t.Errorf("self time of %s = %v, want %v", name, d, want[name])
		}
		sum += d
	}
	if sum != 100*time.Microsecond {
		t.Errorf("layer shares sum to %v, want the op's 100µs", sum)
	}
	if n := spanCounts(spans, 0)["server.publish"]; n != 2 {
		t.Errorf("counted %d publish spans, want 2", n)
	}

	// A second pass appended to the same tracer is analysed on its own.
	spans = append(spans,
		span{Name: "op", Start: us(200), End: us(260), Parent: -1, Op: 1},
		span{Name: "server.publish", Start: us(210), End: us(220), Parent: 4, Op: 1})
	self = selfTimes(spans, 4)
	if self["op"] != 50*time.Microsecond || self["server.publish"] != 10*time.Microsecond {
		t.Errorf("second pass: self times %v", self)
	}
}

func TestRecorderSpans(t *testing.T) {
	tr := newTracer()
	rec := newRecorder(tr, nil)
	rec.op(func() error {
		id := rec.child("server.publish")
		tr.end(id)
		return nil
	})
	rec.op(func() error { return fmt.Errorf("boom") })
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != -1 || tr.spans[2].Op != 1 {
		t.Errorf("unexpected spans %+v", tr.spans)
	}
	if len(rec.lat) != 2 || rec.failed != 1 {
		t.Errorf("recorded %d ops, %d failed; want 2, 1", len(rec.lat), rec.failed)
	}
	// Untraced, the same calls record nothing and do not panic.
	plain := newRecorder(nil, nil)
	plain.op(func() error { plain.tr.end(plain.child("x")); return nil })
	if len(plain.lat) != 1 {
		t.Errorf("untraced recorder kept %d latencies", len(plain.lat))
	}
}

func TestCalibClock(t *testing.T) {
	var none *calibClock // what a twin's set-up is given
	none.tick()
	if none.lap() != 0 {
		t.Error("a nil clock measured something")
	}
	c := &calibClock{samples: []float64{calibNominalMS, 2 * calibNominalMS, 2 * calibNominalMS}}
	if f := c.factor(1); f != 2 {
		t.Errorf("factor over two samples at twice nominal = %g, want 2", f)
	}
	// One second of work between a sample at twice nominal and a fresh one:
	// the stretch is scaled by their mean, so by more than 1 and to less
	// than the second it took.
	c.last = time.Now().Add(-time.Second)
	c.tick()
	if len(c.samples) != 4 || c.scaled <= 0 || c.scaled >= 1.01 {
		t.Errorf("after one stretch: %d samples, %.3f s scaled", len(c.samples), c.scaled)
	}
}

func listHash[T any](xs []T) uint64 {
	h := fnv.New64a()
	for _, x := range xs {
		fmt.Fprintf(h, "%v\n", x)
	}
	return h.Sum64()
}

func TestOpListsAreSeeded(t *testing.T) {
	xs := make([]int, 180)
	for i := range xs {
		xs[i] = i
	}
	a, b, c := everyNth(xs, 2, 1), everyNth(xs, 2, 1), everyNth(xs, 2, 2)
	if len(a) != 90 {
		t.Fatalf("every other of 180 gave %d", len(a))
	}
	if listHash(a) != listHash(b) {
		t.Error("the same seed gave two different op lists")
	}
	if listHash(a) == listHash(c) {
		t.Error("different seeds gave the same op list")
	}
	// The seed orders the ops; it does not choose them.
	seen := map[int]bool{}
	for _, x := range c {
		seen[x] = true
	}
	for _, x := range a {
		if x%2 != 0 || !seen[x] {
			t.Fatalf("element %d: every seed must flap the same elements", x)
		}
	}
}

func TestWorkingSets(t *testing.T) {
	var all []rel.Tuple
	var at []string
	for i := 0; i < 5000; i++ {
		node := fmt.Sprintf("AS%04d", i/5)
		all = append(all, rel.NewTuple("routeEntry", rel.Addr(node), rel.Str(fmt.Sprintf("10.%d.0.0/16", i%5))))
		at = append(at, node)
	}
	cold := crossSection(all, at, coldTuples)
	if len(cold) != coldTuples*len(queryTypes) {
		t.Fatalf("cold round has %d pairs", len(cold))
	}
	seen := map[string]bool{}
	for _, p := range cold {
		key := fmt.Sprintf("%s %d", p.litJSON, p.typ)
		if seen[key] {
			t.Fatalf("cold round repeats %s", key)
		}
		seen[key] = true
		if p.at != p.tuple.Vals[0].String() {
			t.Fatalf("pair %s is asked at %s", p.tuple, p.at)
		}
	}
	if n := hotTuples * len(queryTypes); n > resultCacheEntries {
		t.Errorf("hot set of %d pairs does not fit the %d-entry result cache", n, resultCacheEntries)
	}
	if gatewayTuples*len(queryTypes)%churnEvery != 0 {
		t.Errorf("gateway round is not a whole number of churn periods")
	}
}

func TestRequestBodyAndSplitVersion(t *testing.T) {
	tuple := rel.NewTuple("routeEntry", rel.Addr("AS0001"), rel.Str("10.0.0.0/16"))
	q := &queryWorkload{pairs: crossSection([]rel.Tuple{tuple}, []string{"AS0001"}, 1)}
	if got, want := string(q.requestBody(0)), `{"type":"lineage","tuple":"routeEntry(@'AS0001',\"10.0.0.0/16\")"}`; got != want {
		t.Errorf("unpinned body %s, want %s", got, want)
	}
	q.pinned = 42
	if got := string(q.requestBody(3)); got != `{"type":"count","tuple":"routeEntry(@'AS0001',\"10.0.0.0/16\")","version":42}` {
		t.Errorf("pinned body %s", got)
	}

	body := []byte("{\n  \"version\": 147,\n  \"virtualTimeUs\": 9000,\n  \"type\": \"nodes\"\n}\n")
	v, rest, err := splitVersion(body)
	if err != nil || v != 147 || string(rest) != "  \"type\": \"nodes\"\n}\n" {
		t.Errorf("splitVersion = %d, %q, %v", v, rest, err)
	}
	for _, bad := range []string{"", "{}", "{\n  \"version\": x,\n", "{\n  \"version\": 1,\n  \"type\": 2\n}"} {
		if _, _, err := splitVersion([]byte(bad)); err == nil {
			t.Errorf("splitVersion(%q) accepted a malformed body", bad)
		}
	}
}

// BENCHMARK.json is generated from the tables in spec.go (bench -spec);
// the committed file must be that output, and obey the file's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from `bench -spec`; regenerate it")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || names[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		names[n] = true
	}
	if len(workloadSpecs) < 2 || len(workloadSpecs) > 8 {
		t.Errorf("%d workloads", len(workloadSpecs))
	}
	for _, w := range workloadSpecs {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Error(err)
		}
	}
	setup := false
	for _, m := range e2eSpecs {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	if len(layerSpecs) > 128 {
		t.Errorf("%d per-layer metrics", len(layerSpecs))
	}
	for _, m := range layerSpecs {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}
