package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/client"
	"repro/internal/server"
)

// SoakOptions tunes a soak run against a booted scenario.
type SoakOptions struct {
	// Clients is how many concurrent HTTP clients replay the query
	// mix against the gateway (default 8).
	Clients int
	// Queries is the total number of queries issued across all
	// clients (default 2000).
	Queries int
	// ChurnEvents is how many base-fact churn events the load
	// generator applies to every arm's engine, in lockstep, while
	// the clients run (default 200). Churn mints snapshot versions
	// concurrently with serving, which is exactly the contention the
	// publisher's copy-on-publish design exists for.
	ChurnEvents int
}

func (o SoakOptions) withDefaults() SoakOptions {
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Queries <= 0 {
		o.Queries = 2000
	}
	if o.ChurnEvents < 0 {
		o.ChurnEvents = 0
	}
	return o
}

// SoakReport is what one soak run observed.
type SoakReport struct {
	Scenario    string
	Clients     int
	Queries     int
	ChurnEvents int

	// ChecksPassed records that the full oracle suite passed on this
	// deployment before load started.
	ChecksPassed int

	// PublishedVersions is how many snapshot versions the churn loop
	// minted during the run.
	PublishedVersions uint64

	// CacheHits/CacheMisses tally the gateway's X-Cache verdicts.
	CacheHits   int64
	CacheMisses int64

	// Statuses counts responses by HTTP status code.
	Statuses map[string]int64
}

// Soak replays the scenario's query mix against the booted gateway at
// the configured concurrency while churning every arm's engine, and
// reports statuses, cache behavior, and versions published. The
// oracle checks run first — a soak over a deployment whose answers
// are wrong measures nothing.
func (d *Deployment) Soak(opts SoakOptions) (*SoakReport, error) {
	o := opts.withDefaults()
	results, err := d.RunChecks()
	if err != nil {
		return nil, fmt.Errorf("soak: oracle checks failed before load: %w", err)
	}
	if len(d.Checks) == 0 {
		return nil, fmt.Errorf("soak: scenario %s has no checks to replay", d.Scenario.Name)
	}

	// Pre-marshal one request body per check, with its pinned version
	// resolved, so workers only do HTTP.
	type job struct {
		name string
		body []byte
	}
	jobs := make([]job, len(d.Checks))
	for i, c := range d.Checks {
		version, err := d.resolveMark(c.AtMark)
		if err != nil {
			return nil, err
		}
		if version == 0 {
			// Pin final-state queries to the pre-churn snapshot so
			// every job's answer stays version-determined while the
			// churn loop advances the current version underneath.
			version = d.SinglePub.Current().Version
		}
		b, err := json.Marshal(&client.QueryRequest{Q: c.Query, Version: version})
		if err != nil {
			return nil, err
		}
		jobs[i] = job{name: c.Name, body: b}
	}

	report := &SoakReport{
		Scenario:     d.Scenario.Name,
		Clients:      o.Clients,
		Queries:      o.Queries,
		ChurnEvents:  o.ChurnEvents,
		ChecksPassed: len(results),
		Statuses:     map[string]int64{},
	}

	var (
		next   atomic.Int64
		hits   atomic.Int64
		misses atomic.Int64
		mu     sync.Mutex // guards statuses
	)
	startVersion := d.SinglePub.Current().Version

	var wg sync.WaitGroup
	errc := make(chan error, o.Clients+1)
	for w := 0; w < o.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := &http.Client{}
			for {
				k := int(next.Add(1)) - 1
				if k >= o.Queries {
					return
				}
				j := jobs[k%len(jobs)]
				status, verdict, err := d.soakQuery(hc, j.body)
				if err != nil {
					errc <- fmt.Errorf("soak: query %s: %w", j.name, err)
					return
				}
				switch verdict {
				case "HIT":
					hits.Add(1)
				case "MISS":
					misses.Add(1)
				}
				mu.Lock()
				report.Statuses[fmt.Sprint(status)]++
				mu.Unlock()
			}
		}()
	}

	// Churn: insert/retract a synthetic base fact in lockstep on all
	// four engines. Engines are single-threaded by contract, so every
	// mutation happens on this one goroutine; HTTP readers only ever
	// touch published snapshots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := d.churn(o.ChurnEvents); err != nil {
			errc <- err
		}
	}()

	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return nil, err
	}

	report.PublishedVersions = d.SinglePub.Current().Version - startVersion
	report.CacheHits = hits.Load()
	report.CacheMisses = misses.Load()
	return report, nil
}

func (d *Deployment) soakQuery(hc *http.Client, body []byte) (status int, cacheVerdict string, err error) {
	resp, err := hc.Post(d.Gateway.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	// Drain so the connection is reusable; the body's correctness is
	// the check suite's job, not the soak's.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, resp.Header.Get(client.HeaderCache), nil
}

// churn inserts and retracts the scenario's synthetic base facts
// across every arm, one event at a time, so all four version
// sequences stay aligned. Even events insert fact k/2, odd events
// retract it again.
func (d *Deployment) churn(events int) error {
	if events == 0 {
		return nil
	}
	if d.churnFact == nil {
		return fmt.Errorf("soak: scenario %s defines no churn fact", d.Scenario.Name)
	}
	engines := []*server.Publisher{d.SinglePub}
	engines = append(engines, d.ShardPubs...)
	for k := 0; k < events; k++ {
		fact := d.churnFact(k / 2)
		for _, pub := range engines {
			var err error
			if k%2 == 0 {
				err = pub.Engine().InsertFact(fact)
			} else {
				err = pub.Engine().DeleteFact(fact)
			}
			if err != nil {
				return fmt.Errorf("soak: churn event %d (%s): %w", k, fact, err)
			}
		}
	}
	return nil
}
