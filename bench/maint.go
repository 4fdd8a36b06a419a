package main

import (
	"crypto/sha1"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	nettrails "repro"
	"repro/internal/engine"
	"repro/internal/protocols"
	"repro/internal/provstore"
	"repro/internal/rel"
	"repro/internal/routeviews"
	"repro/internal/scenario"
	"repro/internal/server"
)

// Sizes of the two maintenance deployments. They are constants, not
// flags: a metric is only comparable between commits at one size.
const (
	gridSide = 10 // maint_flap: 10x10 MINCOST grid, 180 edges

	durableASes    = 100 // maint_durable: generated AS graph
	durableOrigins = 8   // prefixes announced during set-up
	durableStride  = 6   // every 6th AS originates the bench prefix in a round
	benchPrefix    = "198.18.0.0/24"

	// syncHarness opens the store without its own fsync schedule; the
	// traced twin then calls Store.Sync itself after every version, so
	// append and fsync can be timed apart.
	syncHarness = 1 << 30

	buildDir = ".bench_build" // store dirs live here: on the checkout's filesystem
)

// maintKind selects which deployment a maintWorkload builds.
type maintKind struct {
	durable    bool // BGP + snapshot store instead of MINCOST + memory publisher
	provenance bool // false: the provenance-off twin (no publisher can attach)
	storeSync  int  // 0 no store, 1 the daemon's default, syncHarness for the traced twin
}

// maintWorkload is one maintenance deployment and its round: every op
// is one base-tuple change driven to quiescence, and each op has an
// inverse later in the round, so a round ends in the state it began in.
type maintWorkload struct {
	kind maintKind
	seed int64

	eng   *engine.Engine
	pub   *server.Publisher
	store *provstore.Store
	dir   string
	ops   []func() error

	convergeS float64
	baseline  map[string][sha1.Size]byte
	wrapped   bool
}

func newMaintFlap(seed int64) *maintWorkload {
	return &maintWorkload{seed: seed, kind: maintKind{provenance: true}}
}

func newMaintDurable(seed int64) *maintWorkload {
	return &maintWorkload{seed: seed, kind: maintKind{durable: true, provenance: true, storeSync: 1}}
}

func (m *maintWorkload) describe() string {
	if m.kind.durable {
		return fmt.Sprintf("bgp ases=%d origins=%d ops/round=%d store=%s fs=%s", durableASes, durableOrigins, len(m.ops), m.dir, fsType(m.dir))
	}
	return fmt.Sprintf("mincost grid=%dx%d ops/round=%d", gridSide, gridSide, len(m.ops))
}

func (m *maintWorkload) setup(clock *calibClock) error {
	var err error
	if m.kind.durable {
		err = m.buildBGP(clock)
	} else {
		err = m.buildGrid()
	}
	if err != nil {
		return err
	}
	m.convergeS = clock.lap()
	m.wrapped = false

	if !m.kind.provenance {
		// No publisher can attach without provenance; a no-op observer
		// keeps the twin on the epoch scheduler the others run on.
		m.eng.SetEpochObserver(func() {})
	} else {
		var popts server.PublisherOptions
		if m.kind.storeSync != 0 {
			if err := os.MkdirAll(buildDir, 0o755); err != nil {
				return err
			}
			if m.dir, err = os.MkdirTemp(buildDir, "store-"); err != nil {
				return err
			}
			all := m.eng.Nodes()
			m.store, err = provstore.Open(m.dir, provstore.Options{AllNodes: all, Owned: all, SyncEvery: m.kind.storeSync})
			if err != nil {
				return err
			}
			popts.Store = m.store
		}
		if m.pub, err = server.NewPublisherWithOptions(m.eng, popts); err != nil {
			return err
		}
	}

	clock.tick()
	// Warm-up: one round, then the state every later round must restore.
	warm := newRecorder(nil, clock)
	m.round(warm)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up round: %d ops failed", warm.failed)
	}
	if m.pub != nil {
		m.baseline = m.digests()
	}
	return nil
}

// buildGrid converges MINCOST on the grid. The round flaps every other
// edge (remove, then add back), in a seeded order.
func (m *maintWorkload) buildGrid() error {
	opts := engine.DefaultOptions()
	opts.Provenance = m.kind.provenance
	edges := protocols.GridTopology(gridSide, gridSide, 1)
	eng, err := protocols.Build(protocols.MinCost, protocols.NodeNames(gridSide*gridSide), edges, opts)
	if err != nil {
		return err
	}
	m.eng = eng
	m.ops = m.ops[:0]
	for _, e := range everyNth(edges, 2, m.seed) {
		m.ops = append(m.ops,
			func() error { return eng.RemoveBiLink(e.A, e.B, e.Cost) },
			func() error { return eng.AddBiLink(e.A, e.B, e.Cost) })
	}
	return nil
}

// buildBGP converges BGP on the generated AS graph. The graph itself is
// fixed — op cost depends heavily on where in the hierarchy an AS sits,
// so the seed orders the originating ASes but does not choose them.
func (m *maintWorkload) buildBGP(clock *calibClock) error {
	g, err := routeviews.GenerateASGraph(routeviews.ASGraphOptions{Nodes: durableASes, Seed: 1})
	if err != nil {
		return err
	}
	d, err := nettrails.NewBGPDeployment(g.ASes, scenario.Links(g), nettrails.Config{Seed: 1})
	if err != nil {
		return err
	}
	if err := originate(d, g.ASes, durableOrigins, clock); err != nil {
		return err
	}
	m.eng = d.Eng
	m.ops = m.ops[:0]
	for _, as := range everyNth(g.ASes, durableStride, m.seed) {
		m.ops = append(m.ops,
			func() error { return d.Originate(as, benchPrefix) },
			func() error { return d.Withdraw(as, benchPrefix) })
	}
	return nil
}

// everyNth takes every stride-th element of xs and puts them in a seeded
// order: which elements a round touches is the same for every seed (op
// cost depends on where in the topology an element sits), their order is
// the seed's.
func everyNth[T any](xs []T, stride int, seed int64) []T {
	var out []T
	for i := 0; i < len(xs); i += stride {
		out = append(out, xs[i])
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// originate announces k prefixes from ASes spread over the second half
// of the (sorted) AS list, where the generator puts the stubs.
func originate(d *nettrails.BGPDeployment, ases []string, k int, clock *calibClock) error {
	step := len(ases)/k/2 + 1
	for i := 0; i < k; i++ {
		clock.tick()
		as := ases[len(ases)-1-i*step]
		if err := d.Originate(as, fmt.Sprintf("10.%d.0.0/16", i)); err != nil {
			return err
		}
	}
	return nil
}

func (m *maintWorkload) teardown() {
	if m.pub != nil {
		m.pub.Detach()
	}
	if m.store != nil {
		_ = m.store.Close() // the directory is removed next
		m.store = nil
	}
	if m.dir != "" {
		_ = os.RemoveAll(m.dir)
		m.dir = ""
	}
	m.eng, m.pub, m.baseline = nil, nil, nil
}

const (
	spanPublish = "server.publish" // Publisher.Publish, with the store's append (and its fsync at SyncEvery 1) when one is attached
	spanFsync   = "provstore.fsync"
)

func (m *maintWorkload) round(rec *recorder) {
	if rec.tr != nil && !m.wrapped && m.pub != nil {
		// Replace the publisher's own observer by one that does the same
		// work inside spans. Only the traced pass pays for this.
		m.wrapped = true
		m.eng.SetEpochObserver(func() {
			before := m.pub.Current().Version
			id := rec.child(spanPublish)
			m.pub.Publish()
			rec.tr.end(id)
			if m.kind.storeSync == syncHarness && m.pub.Current().Version != before {
				id := rec.child(spanFsync)
				if err := m.store.Sync(); err != nil {
					rec.fail(err)
				}
				rec.tr.end(id)
			}
		})
	}
	for _, op := range m.ops {
		rec.op(op)
	}
}

// check compares every node's published state with the post-warm-up
// baseline, and the store's durable watermark with what was published.
func (m *maintWorkload) check() []error {
	if m.pub == nil {
		return nil
	}
	var errs []error
	for addr, d := range m.digests() {
		if d != m.baseline[addr] {
			errs = append(errs, fmt.Errorf("node %s: state differs from the post-warm-up baseline", addr))
		}
	}
	if m.kind.storeSync == 1 {
		last, durable, cur := m.store.LastVersion(), m.store.DurableVersion(), m.pub.Current().Version
		if last != cur || durable != cur {
			errs = append(errs, fmt.Errorf("store at version %d (durable %d), publisher at %d", last, durable, cur))
		}
	}
	return errs
}

// digests hashes, per node, what a client can read of its partition:
// every visible tuple with its derivations and their rule executions,
// plus the partition's entry counts (so leaked entries show). Unlike
// Snapshot.NodeDigest it leaves out the traffic counters, which only
// grow, and is blind to empty tables and to how the provenance view is
// bucketed, which remove+add legitimately change.
func (m *maintWorkload) digests() map[string][sha1.Size]byte {
	snap := m.pub.Current()
	out := make(map[string][sha1.Size]byte, len(snap.Nodes))
	for _, addr := range snap.Nodes {
		h := sha1.New()
		view, _ := snap.PartitionView(addr)
		tables, _ := snap.NodeTables(addr)
		names := make([]string, 0, len(tables))
		for name, f := range tables {
			if f.Len() > 0 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, "%s %d\n", name, tables[name].Len())
			tables[name].Scan(func(t rel.Tuple) bool {
				h.Write(rel.MarshalTuple(t))
				derivs, _ := view.Derivations(t.VID())
				for _, e := range derivs {
					h.Write(e.RID[:])
					h.Write([]byte(e.RLoc))
					if at, ok := snap.PartitionView(e.RLoc); ok {
						if ex, ok := at.Exec(e.RID); ok {
							h.Write([]byte(ex.Rule))
							for _, in := range ex.VIDs {
								h.Write(in[:])
							}
						}
					}
				}
				return true
			})
		}
		if n, ok := m.eng.Node(addr); ok {
			st := n.Prov.Statistics()
			fmt.Fprintf(h, "%d %d %d", st.ProvEntries, st.ExecEntries, st.Pins)
		}
		var d [sha1.Size]byte
		copy(d[:], h.Sum(nil))
		out[addr] = d
	}
	return out
}

// provEntries sums the provenance entries of every partition.
func (m *maintWorkload) provEntries() int {
	total := 0
	for _, addr := range m.eng.Nodes() {
		if n, ok := m.eng.Node(addr); ok && n.Prov != nil {
			total += n.Prov.Statistics().ProvEntries
		}
	}
	return total
}

// layers runs the traced passes: on this deployment, and on the twins
// that separate what cannot be told apart from outside on one engine.
func (m *maintWorkload) layers(rep *layerReport) error {
	out, tr := rep.metrics, rep.tr
	out["engine.converge_s"] = m.convergeS
	out["provenance.entries"] = float64(m.provEntries())
	msgs0, bytes0, _ := m.eng.Net.Totals()
	v0, disk0 := m.pub.Current().Version, dirBytes(m.dir)
	plain, traced := rep.tracedPair(m)
	msgs1, bytes1, _ := m.eng.Net.Totals()
	ops := float64(len(plain.rec.lat) + len(traced.rec.lat))
	versions := float64(m.pub.Current().Version - v0)
	out["simnet.msgs_per_op"] = float64(msgs1-msgs0) / ops
	out["simnet.bytes_per_op"] = float64(bytes1-bytes0) / ops
	out["engine.epochs_per_op"] = versions / ops

	// perSpan is the mean self time of the spans called name recorded from
	// index from on, in a pass that ran at the given speed factor.
	perSpan := func(name string, from int, factor float64) float64 {
		return ms(selfTimes(tr.spans, from)[name]) / float64(spanCounts(tr.spans, from)[name]) / factor
	}
	out["engine.quiesce_ms"] = perSpan("op", 0, traced.factor())

	if !m.kind.durable {
		out["server.publish_ms"] = perSpan(spanPublish, 0, traced.factor())
		twin := &maintWorkload{seed: m.seed, kind: maintKind{}}
		if err := twin.setup(nil); err != nil {
			return fmt.Errorf("provenance-off twin: %w", err)
		}
		off := rep.pass(twin, false)
		twin.teardown()
		out["eval.noprov_ms"] = mean(off.scaled)
		out["provenance.overhead_ratio"] = out["engine.quiesce_ms"] / out["eval.noprov_ms"]
		return nil
	}

	out["provstore.bytes_per_version"] = float64(dirBytes(m.dir)-disk0) / versions

	// Twin with a memory publisher: what Publish costs with no store.
	from := len(tr.spans)
	mem := &maintWorkload{seed: m.seed, kind: maintKind{durable: true, provenance: true}}
	if err := mem.setup(nil); err != nil {
		return fmt.Errorf("memory-publisher twin: %w", err)
	}
	pass := rep.pass(mem, true)
	mem.teardown()
	out["server.publish_ms"] = perSpan(spanPublish, from, pass.factor())

	// Twin whose store never syncs by itself: Publish is publish+append,
	// and the harness's Sync after each version is the fsync.
	from = len(tr.spans)
	split := &maintWorkload{seed: m.seed, kind: maintKind{durable: true, provenance: true, storeSync: syncHarness}}
	if err := split.setup(nil); err != nil {
		return fmt.Errorf("explicit-sync twin: %w", err)
	}
	pass = rep.pass(split, true)
	split.teardown()
	out["provstore.append_ms"] = perSpan(spanPublish, from, pass.factor()) - out["server.publish_ms"]
	out["provstore.fsync_ms"] = perSpan(spanFsync, from, pass.factor())

	// The read path of what the passes wrote: a seeded sample of
	// versions materialized, then recovery of the whole log.
	rng := rand.New(rand.NewSource(m.seed))
	last := m.store.LastVersion()
	var total time.Duration
	const samples = 50
	clock := newCalibClock()
	for i := 0; i < samples; i++ {
		v := v0 + 1 + uint64(rng.Int63n(int64(last-v0)))
		id := tr.begin("provstore.materialize", -1, -1)
		t0 := time.Now()
		_, err := m.store.Materialize(v)
		total += time.Since(t0)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("materialize version %d: %w", v, err)
		}
		clock.tick()
	}
	out["provstore.materialize_ms"] = ms(total) / samples / clock.factor(0)

	if err := m.store.Close(); err != nil {
		return err
	}
	all := m.eng.Nodes()
	id := tr.begin("provstore.open", -1, -1)
	t0 := time.Now()
	reopened, err := provstore.Open(m.dir, provstore.Options{AllNodes: all, Owned: all, SyncEvery: 1})
	opened := time.Since(t0)
	tr.end(id)
	before := len(clock.samples) - 1
	clock.sample()
	out["provstore.open_ms"] = ms(opened) / clock.factor(before)
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	if reopened.LastVersion() != last {
		return fmt.Errorf("reopened store ends at version %d, want %d", reopened.LastVersion(), last)
	}
	m.store = reopened // teardown closes it; the publisher is not driven again
	return nil
}
