package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"

	"repro/client"
	"repro/internal/gateway"
	"repro/internal/provstore"
	"repro/internal/rel"
	"repro/internal/server"
)

// ShardCount is the sharded arm's size. Three shards is the smallest
// deployment where a federated walk must cross shard boundaries in
// both directions.
const ShardCount = 3

// markRetain is the snapshot retention of every arm: generous, so
// every mark recorded during a replay stays pinnable for the checks.
const markRetain = 4096

// Deployment is a booted scenario: four engine builds serving the
// identical replayed state, reachable over HTTP as a single-process
// daemon and as a sharded deployment behind a gateway.
type Deployment struct {
	Scenario Scenario
	// Marks maps replay labels to snapshot versions; identical in
	// all four arms (Boot asserts it).
	Marks map[string]uint64
	// Checks are the scenario's oracle checks, from the single arm.
	Checks []Check

	// Single and Gateway are the two query endpoints every check is
	// answered by; Shards are the gateway's backends.
	Single  *httptest.Server
	Gateway *httptest.Server
	Shards  []*httptest.Server

	// Stores holds each arm's snapshot store when the deployment was
	// booted with BootOptions.DataDir: index 0 is the single-process
	// arm, 1..ShardCount the shard arms. Close closes them.
	Stores []*provstore.Store

	// SinglePub publishes the single-process arm; ShardPubs the
	// shard arms. Their engines may be driven further (soak churn)
	// from ONE goroutine, in lockstep, replaying identical events.
	SinglePub *server.Publisher
	ShardPubs []*server.Publisher

	churnFact func(k int) rel.Tuple
	closers   []func()
}

// Close shuts every HTTP server down.
func (d *Deployment) Close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
}

// BootOptions tunes a scenario boot beyond the defaults — primarily
// to attach a durable snapshot store to every arm so the harness can
// assert the disk-fallback and restart contracts with the same
// byte-parity rigor as live serving.
type BootOptions struct {
	// Retain is every arm's in-memory ring retention (default
	// markRetain, generous enough that marks never evict). Small
	// values force mark-pinned checks through the disk fallback.
	Retain int
	// DataDir, when non-empty, attaches a provstore to every arm: the
	// single process under DataDir/single, shard i under
	// DataDir/shard<i>. Booting again over the same directory resumes
	// each arm's version sequence from its store.
	DataDir string
	// Store tweaks each arm's store options after the harness fills
	// in the deployment identity (node sets, shard coordinates).
	Store func(*provstore.Options)
	// Resume skips the scenario replay: engines boot fresh and the
	// deployment answers pinned reads purely from its stores — the
	// restart arm of the durability acceptance test. Requires a
	// DataDir holding stores from a previous boot; no marks are
	// recorded.
	Resume bool
}

// Boot builds the four arms of a scenario, replays it into each, and
// wires the HTTP servers and gateway. The four replays must mint
// identical mark versions and identical current versions — any drift
// is a determinism bug and fails the boot.
func Boot(sc Scenario) (*Deployment, error) {
	return BootWithOptions(sc, BootOptions{})
}

// BootWithOptions is Boot with explicit retention, durable stores,
// and restart behavior.
func BootWithOptions(sc Scenario, o BootOptions) (*Deployment, error) {
	retain := o.Retain
	if retain <= 0 {
		retain = markRetain
	}
	d := &Deployment{Scenario: sc}
	ok := false
	defer func() {
		if !ok {
			d.Close()
		}
	}()

	boot := func(shard server.ShardSpec, armDir string) (*server.Publisher, map[string]uint64, *Instance, error) {
		inst, err := sc.NewInstance()
		if err != nil {
			return nil, nil, nil, err
		}
		var st *provstore.Store
		if armDir != "" {
			all := inst.Eng.Nodes()
			popts := provstore.Options{
				AllNodes: all,
				Owned:    shard.OwnedNodes(all),
				Shard:    provstore.ShardInfo{Index: shard.Index, Total: shard.Total},
			}
			if o.Store != nil {
				o.Store(&popts)
			}
			if st, err = provstore.Open(armDir, popts); err != nil {
				return nil, nil, nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
			}
			// Closers run in reverse: the store closes after the HTTP
			// server that reads from it.
			d.Stores = append(d.Stores, st)
			d.closers = append(d.closers, func() { st.Close() })
		}
		// Attach before the replay so every epoch of the scenario is
		// published and marks can name intermediate versions.
		pub, err := server.NewPublisherWithOptions(inst.Eng,
			server.PublisherOptions{Retain: retain, Shard: shard, Store: st})
		if err != nil {
			return nil, nil, nil, err
		}
		marks := map[string]uint64{}
		if !o.Resume {
			if err := inst.Replay(func(label string) {
				marks[label] = pub.Current().Version
			}); err != nil {
				return nil, nil, nil, fmt.Errorf("scenario %s: replay: %w", sc.Name, err)
			}
		}
		return pub, marks, inst, nil
	}

	singleDir, shardDir := "", func(int) string { return "" }
	if o.DataDir != "" {
		singleDir = filepath.Join(o.DataDir, "single")
		shardDir = func(i int) string { return filepath.Join(o.DataDir, fmt.Sprintf("shard%d", i)) }
	}

	pub, marks, inst, err := boot(server.ShardSpec{}, singleDir)
	if err != nil {
		return nil, err
	}
	d.SinglePub = pub
	d.Marks = marks
	d.churnFact = inst.ChurnFact
	if inst.Checks != nil {
		d.Checks = inst.Checks()
	}
	d.Single = httptest.NewServer(server.New(pub, sc.Info))
	d.closers = append(d.closers, d.Single.Close)

	urls := make([]string, ShardCount)
	for i := 0; i < ShardCount; i++ {
		spub, smarks, _, err := boot(server.ShardSpec{Index: i, Total: ShardCount}, shardDir(i))
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(smarks, d.Marks) {
			return nil, fmt.Errorf("scenario %s: shard %d marks %v diverge from single-process marks %v",
				sc.Name, i, smarks, d.Marks)
		}
		if sv, v := spub.Current().Version, pub.Current().Version; sv != v {
			return nil, fmt.Errorf("scenario %s: shard %d at version %d, single process at %d", sc.Name, i, sv, v)
		}
		ts := httptest.NewServer(server.New(spub, sc.Info))
		d.closers = append(d.closers, ts.Close)
		d.ShardPubs = append(d.ShardPubs, spub)
		d.Shards = append(d.Shards, ts)
		urls[i] = ts.URL
	}

	gw, err := gateway.New(context.Background(), urls, gateway.WithInfo(sc.Info))
	if err != nil {
		return nil, err
	}
	d.Gateway = httptest.NewServer(gw)
	d.closers = append(d.closers, d.Gateway.Close)
	ok = true
	return d, nil
}

// CheckResult is one evaluated check: the shared status, the (parity
// -verified) body, and the decoded response when the check succeeded.
type CheckResult struct {
	Check    Check
	Status   int
	Body     []byte
	Response *client.QueryResult // nil for error checks
}

// RunCheck answers one check against both the single process and the
// gateway, asserts byte-parity, status, error code, and the oracle.
func (d *Deployment) RunCheck(c Check) (*CheckResult, error) {
	version, err := d.resolveMark(c.AtMark)
	if err != nil {
		return nil, fmt.Errorf("check %s: %w", c.Name, err)
	}
	req := client.QueryRequest{Q: c.Query, Version: version}
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}

	sStatus, sBody, err := post(d.Single.URL+"/v1/query", body)
	if err != nil {
		return nil, fmt.Errorf("check %s: single: %w", c.Name, err)
	}
	gStatus, gBody, err := post(d.Gateway.URL+"/v1/query", body)
	if err != nil {
		return nil, fmt.Errorf("check %s: gateway: %w", c.Name, err)
	}
	if sStatus != gStatus || !bytes.Equal(sBody, gBody) {
		return nil, fmt.Errorf("check %s: parity broken for %s:\nsingle  %d %s\ngateway %d %s",
			c.Name, c.Query, sStatus, sBody, gStatus, gBody)
	}

	want := c.WantStatus
	if want == 0 {
		want = http.StatusOK
	}
	if sStatus != want {
		return nil, fmt.Errorf("check %s: %s returned %d, want %d: %s", c.Name, c.Query, sStatus, want, sBody)
	}
	res := &CheckResult{Check: c, Status: sStatus, Body: sBody}
	if sStatus != http.StatusOK {
		var env client.ErrorEnvelope
		if err := json.Unmarshal(sBody, &env); err != nil {
			return nil, fmt.Errorf("check %s: undecodable error envelope %s: %w", c.Name, sBody, err)
		}
		if c.WantErrCode != "" && env.Error.Code != c.WantErrCode {
			return nil, fmt.Errorf("check %s: error code %q, want %q (%s)", c.Name, env.Error.Code, c.WantErrCode, sBody)
		}
		return res, nil
	}
	var qr client.QueryResult
	if err := json.Unmarshal(sBody, &qr); err != nil {
		return nil, fmt.Errorf("check %s: undecodable response %s: %w", c.Name, sBody, err)
	}
	res.Response = &qr
	if c.Oracle != nil {
		if err := c.Oracle.Eval(&qr); err != nil {
			return nil, fmt.Errorf("check %s (%s): %w\nbody: %s", c.Name, c.Query, err, sBody)
		}
	}
	return res, nil
}

// RunChecks evaluates every check of the booted scenario.
func (d *Deployment) RunChecks() ([]*CheckResult, error) {
	var out []*CheckResult
	for _, c := range d.Checks {
		r, err := d.RunCheck(c)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

func (d *Deployment) resolveMark(label string) (uint64, error) {
	if label == "" {
		return 0, nil // current snapshot
	}
	v, ok := d.Marks[label]
	if !ok {
		return 0, fmt.Errorf("unknown mark %q (have %v)", label, d.Marks)
	}
	return v, nil
}

func post(url string, body []byte) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// Eval applies the oracle to a decoded query response.
func (o *Oracle) Eval(r *client.QueryResult) error {
	participants := participants(r)
	if o.CauseNode != "" {
		if !participants[o.CauseNode] {
			return fmt.Errorf("cause node %s does not participate in the answer (has %v)",
				o.CauseNode, keys(participants))
		}
		if o.WithinDepth > 0 && r.Proof != nil {
			depth, found := proofDepth(r.Proof, o.CauseNode)
			if !found {
				return fmt.Errorf("cause node %s not in the proof tree", o.CauseNode)
			}
			if depth > o.WithinDepth {
				return fmt.Errorf("cause node %s first appears at proof depth %d, want <= %d",
					o.CauseNode, depth, o.WithinDepth)
			}
		}
	}
	if o.AbsentNode != "" && participants[o.AbsentNode] {
		return fmt.Errorf("node %s participates in the answer but must not", o.AbsentNode)
	}
	if o.AllBasesRel != "" {
		if len(r.Bases) == 0 {
			return fmt.Errorf("no base tuples returned, want only %s bases", o.AllBasesRel)
		}
		for _, b := range r.Bases {
			if b.Rel != o.AllBasesRel {
				return fmt.Errorf("base %s is a %s tuple, want only %s bases", b.Text, b.Rel, o.AllBasesRel)
			}
		}
	}
	if o.MinCount > 0 {
		if r.Count == nil {
			return fmt.Errorf("no derivation count in the answer")
		}
		if *r.Count < o.MinCount {
			return fmt.Errorf("derivation count %d, want >= %d", *r.Count, o.MinCount)
		}
	}
	return nil
}

// participants collects every node that appears in the answer: the
// nodes list, base-tuple locations (column 0 of located tuples), and
// proof-tree vertices.
func participants(r *client.QueryResult) map[string]bool {
	out := map[string]bool{}
	for _, n := range r.Nodes {
		out[n] = true
	}
	for _, b := range r.Bases {
		if len(b.Vals) > 0 {
			out[b.Vals[0]] = true
		}
	}
	var walk func(p *client.ProofNode)
	walk = func(p *client.ProofNode) {
		if p.Loc != "" {
			out[p.Loc] = true
		}
		for _, d := range p.Derivs {
			for i := range d.Children {
				walk(&d.Children[i])
			}
		}
	}
	if r.Proof != nil {
		walk(r.Proof)
	}
	return out
}

// proofDepth returns the shallowest tuple depth at which a node
// appears in the proof tree (the root tuple is depth 0).
func proofDepth(root *client.ProofNode, node string) (int, bool) {
	type item struct {
		p     *client.ProofNode
		depth int
	}
	queue := []item{{root, 0}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.p.Loc == node {
			return it.depth, true
		}
		for _, d := range it.p.Derivs {
			for i := range d.Children {
				queue = append(queue, item{&d.Children[i], it.depth + 1})
			}
		}
	}
	return 0, false
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
