package provstore

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/provenance"
	"repro/internal/rel"
)

// testNode is one synthetic owned node: a live table and provenance
// partition the test mutates between versions, mirroring what the
// Publisher freezes.
type testNode struct {
	addr string
	tbl  *rel.Table
	prov *provenance.Store
	msgs int
}

func newTestNode(addr string) *testNode {
	return &testNode{
		addr: addr,
		tbl:  rel.NewTable(rel.NewSchema("link", 2)),
		prov: provenance.NewStore(addr),
	}
}

func (n *testNode) add(k int) rel.Tuple {
	t := rel.NewTuple("link", rel.Addr(n.addr), rel.Int(int64(k)))
	n.tbl.Apply(t, 1)
	n.prov.AddBase(t)
	return t
}

func (n *testNode) remove(k int) {
	t := rel.NewTuple("link", rel.Addr(n.addr), rel.Int(int64(k)))
	n.tbl.Apply(t, -1)
	n.prov.RemoveBase(t)
}

func (n *testNode) state(idx int) NodeState {
	return NodeState{
		OwnedIdx: idx,
		Info:     n.info(),
		Tables:   map[string]*rel.Frozen{"link": n.tbl.Freeze()},
		View:     n.prov.View(),
	}
}

func (n *testNode) info() Info {
	return Info{
		Neighbors: []string{"peer"},
		Tuples:    n.tbl.Len(),
		Prov:      n.prov.Statistics(),
		SentMsgs:  n.msgs,
		SentBytes: n.msgs * 10,
	}
}

func testOptions(owned []string, tweak func(*Options)) Options {
	o := Options{AllNodes: owned, Owned: owned}
	if tweak != nil {
		tweak(&o)
	}
	return o
}

// expectNode compares a materialized node against the live source.
func expectNode(t *testing.T, got NodeData, wantTuples []rel.Tuple, wantInfo Info) {
	t.Helper()
	f := got.Tables["link"]
	gotTuples := f.Tuples()
	if len(gotTuples) != len(wantTuples) {
		t.Fatalf("%s: %d tuples, want %d", got.Addr, len(gotTuples), len(wantTuples))
	}
	for i := range wantTuples {
		if !gotTuples[i].Equal(wantTuples[i]) {
			t.Fatalf("%s: tuple %d = %s, want %s", got.Addr, i, gotTuples[i], wantTuples[i])
		}
	}
	if !reflect.DeepEqual(got.Info, wantInfo) {
		t.Fatalf("%s: info %+v, want %+v", got.Addr, got.Info, wantInfo)
	}
}

func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	owned := []string{"n0", "n1"}
	st, err := Open(dir, testOptions(owned, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	n0, n1 := newTestNode("n0"), newTestNode("n1")
	type snap struct {
		tuples [2][]rel.Tuple
		infos  [2]Info
		time   int64
	}
	var history []snap
	record := func(time int64) {
		var s snap
		s.tuples[0] = append([]rel.Tuple(nil), n0.tbl.Freeze().Tuples()...)
		s.tuples[1] = append([]rel.Tuple(nil), n1.tbl.Freeze().Tuples()...)
		s.infos[0], s.infos[1] = n0.info(), n1.info()
		s.time = time
		history = append(history, s)
	}

	// Version 1: both nodes (the Publisher's full first publish).
	n0.add(1)
	n0.add(2)
	n1.add(100)
	record(10)
	in := VersionInput{Version: 1, Time: 10, States: []NodeState{n0.state(0), n1.state(1)}}
	if err := st.Append(in); err != nil {
		t.Fatal(err)
	}
	// Versions 2..30: alternate dirtying one node; every third version
	// also refreshes the other node's traffic counters.
	for v := uint64(2); v <= 30; v++ {
		var states []NodeState
		var infos []InfoUpdate
		if v%2 == 0 {
			n0.add(int(v) * 10)
			if v%4 == 0 {
				n0.remove(int(v-2) * 10)
			}
			states = []NodeState{n0.state(0)}
			if v%3 == 0 {
				n1.msgs++
				infos = []InfoUpdate{{OwnedIdx: 1, Info: n1.info()}}
			}
		} else {
			n1.add(int(v) * 10)
			states = []NodeState{n1.state(1)}
			if v%3 == 0 {
				n0.msgs++
				infos = []InfoUpdate{{OwnedIdx: 0, Info: n0.info()}}
			}
		}
		record(int64(v) * 10)
		if err := st.Append(VersionInput{Version: v, Time: int64(v) * 10, States: states, Infos: infos}); err != nil {
			t.Fatalf("append %d: %v", v, err)
		}
	}
	if st.LastVersion() != 30 || st.OldestVersion() != 1 {
		t.Fatalf("versions: last=%d oldest=%d", st.LastVersion(), st.OldestVersion())
	}

	for v := uint64(1); v <= 30; v++ {
		vd, err := st.Materialize(v)
		if err != nil {
			t.Fatalf("materialize %d: %v", v, err)
		}
		want := history[v-1]
		if vd.Time != want.time {
			t.Fatalf("version %d: time %d want %d", v, vd.Time, want.time)
		}
		for i := range owned {
			expectNode(t, vd.Nodes[i], want.tuples[i], want.infos[i])
		}
	}

	// The provenance view must answer derivations for a live tuple.
	vd, err := st.Materialize(1)
	if err != nil {
		t.Fatal(err)
	}
	vid := rel.NewTuple("link", rel.Addr("n0"), rel.Int(1)).VID()
	if _, ok := vd.Nodes[0].View.Derivations(vid); !ok {
		t.Fatal("materialized view lost a derivation")
	}
	if tp, ok := vd.Nodes[0].View.TupleOf(vid); !ok || !tp.Equal(rel.NewTuple("link", rel.Addr("n0"), rel.Int(1))) {
		t.Fatal("materialized view lost a pin")
	}
}

func TestStoreIdempotentReplayAndGaps(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOptions([]string{"n0"}, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := newTestNode("n0")
	n.add(1)
	if err := st.Append(VersionInput{Version: 1, Time: 1, States: []NodeState{n.state(0)}}); err != nil {
		t.Fatal(err)
	}
	// Replaying version 1 is a no-op, not an error.
	if err := st.Append(VersionInput{Version: 1, Time: 1, States: []NodeState{n.state(0)}}); err != nil {
		t.Fatal(err)
	}
	if st.LastVersion() != 1 {
		t.Fatalf("last = %d", st.LastVersion())
	}
	// A gap is an error: dense versions are the index's invariant.
	if err := st.Append(VersionInput{Version: 3, Time: 3, States: []NodeState{n.state(0)}}); err == nil {
		t.Fatal("gap accepted")
	}
}

func TestStoreRestartContinues(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions([]string{"n0"}, nil)
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := newTestNode("n0")
	var wantTuples [][]rel.Tuple
	for v := uint64(1); v <= 12; v++ {
		n.add(int(v))
		wantTuples = append(wantTuples, append([]rel.Tuple(nil), n.tbl.Freeze().Tuples()...))
		if err := st.Append(VersionInput{Version: v, Time: int64(v), States: []NodeState{n.state(0)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.LastVersion() != 12 || st2.OldestVersion() != 1 || st2.DurableVersion() != 12 {
		t.Fatalf("after reopen: last=%d oldest=%d durable=%d",
			st2.LastVersion(), st2.OldestVersion(), st2.DurableVersion())
	}
	for v := uint64(1); v <= 12; v++ {
		vd, err := st2.Materialize(v)
		if err != nil {
			t.Fatalf("materialize %d after reopen: %v", v, err)
		}
		got := vd.Nodes[0].Tables["link"].Tuples()
		want := wantTuples[v-1]
		if len(got) != len(want) {
			t.Fatalf("version %d: %d tuples, want %d", v, len(got), len(want))
		}
	}
	// The restarted process replays history deterministically and then
	// continues: replays are skipped, the next dense version appends.
	n2 := newTestNode("n0")
	for v := uint64(1); v <= 13; v++ {
		n2.add(int(v))
		if err := st2.Append(VersionInput{Version: v, Time: int64(v), States: []NodeState{n2.state(0)}}); err != nil {
			t.Fatalf("replay append %d: %v", v, err)
		}
	}
	if st2.LastVersion() != 13 {
		t.Fatalf("after continue: last=%d", st2.LastVersion())
	}
}

func TestStoreSealAndDeepRead(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions([]string{"n0"}, func(o *Options) { o.SealVersions = 5 })
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := newTestNode("n0")
	for v := uint64(1); v <= 23; v++ {
		n.add(int(v))
		if err := st.Append(VersionInput{Version: v, Time: int64(v), States: []NodeState{n.state(0)}}); err != nil {
			t.Fatal(err)
		}
	}
	st.mu.RLock()
	sealedCount := len(st.sealed)
	st.mu.RUnlock()
	if sealedCount != 4 {
		t.Fatalf("sealed %d segments, want 4", sealedCount)
	}
	for v := uint64(1); v <= 23; v++ {
		vd, err := st.Materialize(v)
		if err != nil {
			t.Fatalf("materialize %d: %v", v, err)
		}
		if got := vd.Nodes[0].Tables["link"].Len(); got != int(v) {
			t.Fatalf("version %d: %d tuples", v, got)
		}
	}
}

// TestMaterializedTuplesOutliveClose renders every tuple of a version
// read from a sealed, mmap'd segment, closes the store (unmapping the
// segment) and renders them again: a decoder that kept pointers into
// the mapping would fault or read other bytes here.
func TestMaterializedTuplesOutliveClose(t *testing.T) {
	st, err := Open(t.TempDir(), testOptions([]string{"n0"}, func(o *Options) { o.SealVersions = 5 }))
	if err != nil {
		t.Fatal(err)
	}
	n := newTestNode("n0")
	for v := uint64(1); v <= 12; v++ {
		n.tbl.Apply(rel.NewTuple("link", rel.Addr("n0"), rel.List(rel.Str(fmt.Sprintf("path-%d", v)), rel.IDValue(rel.HashBytes([]byte{byte(v)})))), 1)
		if err := st.Append(VersionInput{Version: v, Time: int64(v), States: []NodeState{n.state(0)}}); err != nil {
			t.Fatal(err)
		}
	}
	vd, err := st.Materialize(4)
	if err != nil {
		t.Fatal(err)
	}
	tuples := vd.Nodes[0].Tables["link"].Tuples()
	if len(tuples) != 4 {
		t.Fatalf("version 4 has %d tuples, want 4", len(tuples))
	}
	before := make([]string, len(tuples))
	for i, tp := range tuples {
		before[i] = tp.String()
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for i, tp := range tuples {
		if got := tp.String(); got != before[i] {
			t.Fatalf("tuple %d renders %s after Close, %s before", i, got, before[i])
		}
	}
}

func TestStoreRetention(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions([]string{"n0"}, func(o *Options) {
		o.SealVersions = 5
		o.Retain = 8
	})
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := newTestNode("n0")
	for v := uint64(1); v <= 40; v++ {
		n.add(int(v))
		// Churn so chunks keep changing and old blobs age out.
		if v > 1 {
			n.remove(int(v) - 1)
		}
		if err := st.Append(VersionInput{Version: v, Time: int64(v), States: []NodeState{n.state(0)}}); err != nil {
			t.Fatal(err)
		}
	}
	oldest := st.OldestVersion()
	if oldest <= 1 {
		t.Fatalf("retention never advanced oldest (= %d)", oldest)
	}
	if oldest > 40-8+1 {
		t.Fatalf("retention dropped retained versions: oldest %d", oldest)
	}
	if _, err := st.Materialize(oldest - 1); !errors.Is(err, ErrNotRetained) {
		t.Fatalf("evicted version error = %v, want ErrNotRetained", err)
	}
	for v := oldest; v <= 40; v++ {
		if _, err := st.Materialize(v); err != nil {
			t.Fatalf("materialize retained %d: %v", v, err)
		}
	}
}

func TestStoreFirstVersion(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions([]string{"n0"}, func(o *Options) { o.SealVersions = 4 })
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := newTestNode("n0")
	born := map[uint64]rel.Tuple{}
	for v := uint64(1); v <= 21; v++ {
		born[v] = n.add(int(v))
		if err := st.Append(VersionInput{Version: v, Time: int64(v), States: []NodeState{n.state(0)}}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(s *Store) {
		t.Helper()
		for v, tp := range born {
			got, ok := s.FirstVersion("n0", tp.VID())
			if !ok || got != v {
				t.Fatalf("FirstVersion(%s) = %d,%v want %d", tp, got, ok, v)
			}
		}
		if _, ok := s.FirstVersion("n0", rel.NewTuple("link", rel.Addr("n0"), rel.Int(999)).VID()); ok {
			t.Fatal("absent tuple has a first version")
		}
		if _, ok := s.FirstVersion("nope", born[1].VID()); ok {
			t.Fatal("absent node has a first version")
		}
	}
	check(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	check(st2)

	// A tuple removed and re-added keeps its earliest sighting.
	n.remove(1)
	if err := st2.Append(VersionInput{Version: 22, Time: 22, States: []NodeState{n.state(0)}}); err != nil {
		t.Fatal(err)
	}
	n.add(1)
	if err := st2.Append(VersionInput{Version: 23, Time: 23, States: []NodeState{n.state(0)}}); err != nil {
		t.Fatal(err)
	}
	if got, ok := st2.FirstVersion("n0", born[1].VID()); !ok || got != 1 {
		t.Fatalf("re-added tuple first version = %d,%v want 1", got, ok)
	}
}

func TestStoreRejectsForeignIdentity(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOptions([]string{"n0", "n1"}, nil))
	if err != nil {
		t.Fatal(err)
	}
	n0, n1 := newTestNode("n0"), newTestNode("n1")
	n0.add(1)
	n1.add(2)
	if err := st.Append(VersionInput{Version: 1, Time: 1, States: []NodeState{n0.state(0), n1.state(1)}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOptions([]string{"n0"}, nil)); err == nil {
		t.Fatal("store reopened under a different node set")
	}
	if _, err := Open(dir, testOptions([]string{"n0", "n1"}, func(o *Options) {
		o.Shard = ShardInfo{Index: 1, Total: 3}
	})); err == nil {
		t.Fatal("store reopened under a different shard")
	}
}

func TestStoreVersionTime(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testOptions([]string{"n0"}, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := newTestNode("n0")
	for v := uint64(1); v <= 3; v++ {
		n.add(int(v))
		if err := st.Append(VersionInput{Version: v, Time: int64(v) * 7, States: []NodeState{n.state(0)}}); err != nil {
			t.Fatal(err)
		}
	}
	for v := uint64(1); v <= 3; v++ {
		got, err := st.VersionTime(v)
		if err != nil || got != int64(v)*7 {
			t.Fatalf("VersionTime(%d) = %d,%v", v, got, err)
		}
	}
	if _, err := st.VersionTime(99); !errors.Is(err, ErrNotRetained) {
		t.Fatalf("VersionTime(99) error = %v", err)
	}
}
