// nettrailssoak is the scenario load generator: it boots one
// adversarial scenario as a full two-shape deployment (single-process
// daemon + 3-shard gateway, exactly as the acceptance tests do), runs
// the scenario's oracle checks once to prove the deployment answers
// correctly, and then replays the check query mix against the gateway
// at configurable concurrency while churning every arm's engine with
// synthetic base-fact events. A failed oracle check, a failed churn
// event or a query that does not complete fails the run. The JSON
// report printed to stdout (query latency percentiles
// per check, cache hit rate, publish rate under churn, status counts)
// is one sample, not a benchmark (that is bench/).
//
// Usage examples:
//
//	nettrailssoak -list
//	nettrailssoak -scenario route-leak
//	nettrailssoak -scenario prefix-hijack -hijack-nodes 200 -clients 16 -queries 5000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/scenario"
)

func main() {
	var (
		name    = flag.String("scenario", "prefix-hijack", "scenario to soak (see -list); prefix-hijack is parameterized by -hijack-nodes")
		nodes   = flag.Int("hijack-nodes", 64, "AS count of the generated prefix-hijack topology")
		seed    = flag.Int64("seed", 1, "seed of the generated topology and replay")
		clients = flag.Int("clients", 8, "concurrent HTTP clients against the gateway")
		queries = flag.Int("queries", 2000, "total queries across all clients")
		churn   = flag.Int("churn", 200, "engine churn events applied during the run (0 disables churn)")
		list    = flag.Bool("list", false, "list scenarios and exit")
	)
	flag.Parse()

	if *list {
		for _, sc := range scenario.Catalog() {
			fmt.Printf("%-24s %s\n", sc.Name, sc.Description)
		}
		return
	}

	sc, err := pick(*name, *nodes, *seed)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "booting %s (single + %d shards + gateway)...\n", sc.Name, scenario.ShardCount)
	d, err := scenario.Boot(sc)
	if err != nil {
		fail(err)
	}
	defer d.Close()

	fmt.Fprintf(os.Stderr, "soaking: %d clients, %d queries, %d churn events\n", *clients, *queries, *churn)
	report, err := d.Soak(scenario.SoakOptions{Clients: *clients, Queries: *queries, ChurnEvents: *churn})
	if err != nil {
		fail(err)
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fail(err)
	}
	os.Stdout.Write(append(enc, '\n'))
	fmt.Fprintf(os.Stderr, "%.0f queries/s, cache hit rate %.2f, %d versions published\n",
		report.ThroughputPerSec, report.CacheHitRate, report.PublishedVersions)
}

// pick resolves a scenario by name; "prefix-hijack" takes its size and
// seed from the flags, the rest come from the catalog as-is.
func pick(name string, nodes int, seed int64) (scenario.Scenario, error) {
	if name == "prefix-hijack" {
		return scenario.PrefixHijack(nodes, seed), nil
	}
	for _, sc := range scenario.Catalog() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return scenario.Scenario{}, fmt.Errorf("unknown scenario %q (try -list)", name)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nettrailssoak:", err)
	os.Exit(1)
}
