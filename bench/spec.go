package main

import "encoding/json"

// runSeconds is the length of one timed window. The driver makes over a
// hundred runs inside one hour, so a run (three set-ups, one window,
// checks) has to stay near twenty seconds.
const runSeconds = 10

// Workload names are fixed: later issues cite them.
const (
	wlMaintFlap    = "maint_flap"
	wlMaintDurable = "maint_durable"
	wlQueryCold    = "query_cold"
	wlQueryHot     = "query_hot"
	wlQueryGateway = "query_gateway_churn"
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{wlMaintFlap, "MINCOST link flaps on a 10x10 grid, memory publisher: evaluator, provenance recording and simnet are the op, the store does nothing"},
	{wlMaintDurable, "BGP originate/withdraw on 100 ASes with an fsync-per-version snapshot store: publish, append and fsync are most of the op, the evaluator little"},
	{wlQueryCold, "one daemon, 1000-AS BGP, every POST /v1/query is a whole-result cache miss on a fresh snapshot: graph walk plus render"},
	{wlQueryHot, "same daemon, a working set that fits the result cache, every timed query a hit: parse, lookup, render and HTTP with the walk bypassed"},
	{wlQueryGateway, "three shards behind the gateway, unpinned queries with a base-fact churn every 16 queries: every publish empties the per-version caches"},
}

type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// End-to-end metrics: the same seven names on every workload.
var e2eSpecs = []e2eSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_kb_per_op", "kB", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// Per-layer metrics. Every traced run prints all of them; a layer that
// is not on a workload's path reads 0 there.
var layerSpecs = []layerSpec{
	{"engine.converge_s", "s", "lower"},
	{"engine.quiesce_ms", "ms", "lower"},
	{"eval.noprov_ms", "ms", "lower"},
	{"provenance.overhead_ratio", "ratio", "lower"},
	{"provenance.entries", "count", "lower"},
	{"simnet.msgs_per_op", "count", "lower"},
	{"simnet.bytes_per_op", "B", "lower"},
	{"engine.epochs_per_op", "count", "lower"},
	{"server.publish_ms", "ms", "lower"},
	{"provstore.append_ms", "ms", "lower"},
	{"provstore.fsync_ms", "ms", "lower"},
	{"provstore.bytes_per_version", "B", "lower"},
	{"provstore.materialize_ms", "ms", "lower"},
	{"provstore.open_ms", "ms", "lower"},
	{"provquery.parse_ms", "ms", "lower"},
	{"server.resolve_ms", "ms", "lower"},
	{"provquery.walk_ms", "ms", "lower"},
	{"provquery.vertices_per_query", "count", "lower"},
	{"server.cache_hit_ms", "ms", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.render_ms", "ms", "lower"},
	{"server.response_kb", "kB", "lower"},
	{"server.http_ms", "ms", "lower"},
	{"gateway.hops_per_query", "count", "lower"},
	{"gateway.hop_ms", "ms", "lower"},
	{"gateway.self_ms", "ms", "lower"},
	{"engine.churn_ms", "ms", "lower"},
	{"runtime.cpu_ms_per_op", "ms", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"host.speed_factor", "ratio", "lower"},
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the
// file and the program cannot name different metrics (spec_test.go
// compares the two).
func benchmarkJSON() []byte {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2eSpec      `json:"end_to_end"`
		PerLayer   []layerSpec    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   e2eSpecs,
		PerLayer:   layerSpecs,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static data: cannot fail
	}
	return append(b, '\n')
}

func unitOf(name string) string {
	for _, m := range e2eSpecs {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range layerSpecs {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("bench: metric " + name + " is not in the spec")
}
