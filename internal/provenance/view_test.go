package provenance

import (
	"cmp"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/rel"
)

func viewTestTuple(i int) rel.Tuple {
	return rel.NewTuple("route", rel.Addr("as"+strconv.Itoa(i%61)), rel.Int(int64(i)))
}

// modelStore is a Store driven in step with a reference model: plain
// maps that follow the partition's semantics with none of the bucket
// machinery. The store's reads, its views and a from-scratch rebuild
// are all checked against the model, which shares nothing with them.
type modelStore struct {
	*Store
	version uint64
	prov    map[rel.ID]map[Entry]int // VID -> derivation -> duplicate count
	exec    map[rel.ID]modelExec     // RID -> execution
	pins    map[rel.ID]modelPin      // VID -> pinned tuple
	rids    map[rel.ID]bool          // every RID ever recorded, live or not
}

type modelExec struct {
	rule  string
	vids  []rel.ID
	count int
}

type modelPin struct {
	tuple rel.Tuple
	refs  int // one per derivation count and per live execution input
}

func newModelStore(addr string) *modelStore {
	return &modelStore{
		Store: NewStore(addr),
		prov:  map[rel.ID]map[Entry]int{},
		exec:  map[rel.ID]modelExec{},
		pins:  map[rel.ID]modelPin{},
		rids:  map[rel.ID]bool{},
	}
}

func (m *modelStore) AddBase(t rel.Tuple) {
	m.Store.AddBase(t)
	m.version++
	m.add(t, Entry{VID: t.VID()})
}

func (m *modelStore) RemoveBase(t rel.Tuple) {
	m.Store.RemoveBase(t)
	m.version++
	m.remove(Entry{VID: t.VID()})
}

func (m *modelStore) RecordFiring(f eval.Firing) {
	m.Store.RecordFiring(f)
	m.version++
	m.rids[f.RID] = true
	e := Entry{VID: f.Output.VID(), RID: f.RID, RLoc: m.Addr()}
	x, ok := m.exec[f.RID]
	if f.Sign > 0 {
		if !ok {
			x.rule = f.RuleName
			for _, in := range f.Inputs {
				x.vids = append(x.vids, in.VID())
				m.pin(in)
			}
		}
		x.count++
		m.exec[f.RID] = x
		if f.OutputLoc == m.Addr() {
			m.add(f.Output, e)
		}
		return
	}
	if ok {
		if x.count--; x.count > 0 {
			m.exec[f.RID] = x
		} else {
			delete(m.exec, f.RID)
			for _, vid := range x.vids {
				m.unpin(vid)
			}
		}
	}
	if f.OutputLoc == m.Addr() {
		m.remove(e)
	}
}

func (m *modelStore) add(t rel.Tuple, e Entry) {
	m.pin(t)
	if m.prov[e.VID] == nil {
		m.prov[e.VID] = map[Entry]int{}
	}
	m.prov[e.VID][e]++
}

// remove retracts one count of a derivation; retracting one the model
// does not hold changes nothing, the pin included.
func (m *modelStore) remove(e Entry) {
	derivs := m.prov[e.VID]
	if derivs[e] == 0 {
		return
	}
	m.unpin(e.VID)
	if derivs[e]--; derivs[e] == 0 {
		delete(derivs, e)
		if len(derivs) == 0 {
			delete(m.prov, e.VID)
		}
	}
}

func (m *modelStore) pin(t rel.Tuple) {
	p, ok := m.pins[t.VID()]
	if !ok {
		p.tuple = t
	}
	p.refs++
	m.pins[t.VID()] = p
}

func (m *modelStore) unpin(vid rel.ID) {
	p, ok := m.pins[vid]
	if !ok {
		return
	}
	if p.refs--; p.refs > 0 {
		m.pins[vid] = p
	} else {
		delete(m.pins, vid)
	}
}

// derivations is the model's list for vid in derivation order: by RID,
// then by the executing node.
func (m *modelStore) derivations(vid rel.ID) []Entry {
	out := slices.Collect(maps.Keys(m.prov[vid]))
	slices.SortFunc(out, func(a, b Entry) int {
		return cmp.Or(a.RID.Compare(b.RID), strings.Compare(a.RLoc, b.RLoc))
	})
	return out
}

func (m *modelStore) stats() Stats {
	st := Stats{ExecEntries: len(m.exec), Pins: len(m.pins)}
	for _, derivs := range m.prov {
		st.ProvEntries += len(derivs)
	}
	return st
}

// checkViewMatchesStore asserts that the frozen view, and the store's
// own reads, answer exactly what the model holds: every tuple of the
// key universe and every RID ever recorded, present or absent.
func checkViewMatchesStore(t *testing.T, m *modelStore, v *View, step int, universe []rel.Tuple) {
	t.Helper()
	if v.Version() != m.version || m.Version() != m.version {
		t.Fatalf("step %d: view version %d, store %d, model %d", step, v.Version(), m.Version(), m.version)
	}
	want := m.stats()
	if got := v.Statistics(); got != want {
		t.Fatalf("step %d: view stats %+v != model %+v", step, got, want)
	}
	if got := m.Statistics(); got != want {
		t.Fatalf("step %d: store stats %+v != model %+v", step, got, want)
	}
	type reader struct {
		name        string
		derivations func(rel.ID) ([]Entry, bool)
		exec        func(rel.ID) (ExecEntry, bool)
		tupleOf     func(rel.ID) (rel.Tuple, bool)
	}
	readers := []reader{
		{"view", v.Derivations, v.Exec, v.TupleOf},
		{"store", m.Derivations, m.Exec, m.TupleOf},
	}
	for _, tp := range universe {
		vid := tp.VID()
		wantD := m.derivations(vid)
		p, pinned := m.pins[vid]
		for _, r := range readers {
			got, ok := r.derivations(vid)
			if ok != (len(wantD) > 0) || !slices.Equal(got, wantD) {
				t.Fatalf("step %d: %s Derivations(%s) = %v,%v, model %v", step, r.name, vid.Short(), got, ok, wantD)
			}
			tup, ok := r.tupleOf(vid)
			if ok != pinned || ok && tup.Compare(p.tuple) != 0 {
				t.Fatalf("step %d: %s TupleOf(%s) = %v,%v, model pinned %v", step, r.name, vid.Short(), tup, ok, pinned)
			}
		}
		support := 0
		for _, n := range m.prov[vid] {
			support += n
		}
		if got := m.SupportCount(vid); got != support {
			t.Fatalf("step %d: SupportCount(%s) = %d, model %d", step, vid.Short(), got, support)
		}
	}
	for rid := range m.rids {
		x, live := m.exec[rid]
		for _, r := range readers {
			got, ok := r.exec(rid)
			if ok != live || ok && (got.RID != rid || got.Rule != x.rule || !slices.Equal(got.VIDs, x.vids)) {
				t.Fatalf("step %d: %s Exec(%s) = %+v,%v, model %+v,%v", step, r.name, rid.Short(), got, ok, x, live)
			}
		}
	}
}

// persisted is a view's three directories in their stored form.
type persisted struct{ prov, exec, pins [][]byte }

func persist(v *View) persisted {
	var p persisted
	p.prov, p.exec, p.pins = v.PersistBuckets()
	return p
}

// scratchView rebuilds the model's state from nothing, through a fresh
// store's public mutators: its directories start at one bucket and
// receive every key before their first View. Derivations are replayed
// with their counts (a derived one as a remote entry) and executions
// as firings whose output lives elsewhere, so pin references come out
// as the model counts them. Nothing is read from the store under test.
func scratchView(m *modelStore) *View {
	fresh := NewStore(m.Addr())
	for _, vid := range slices.SortedFunc(maps.Keys(m.prov), rel.ID.Compare) {
		tp := m.pins[vid].tuple
		for e, n := range m.prov[vid] {
			for range n {
				if e.RID.IsZero() {
					fresh.AddBase(tp)
				} else {
					fresh.ApplyRemote(tp, e, 1)
				}
			}
		}
	}
	for _, rid := range slices.SortedFunc(maps.Keys(m.exec), rel.ID.Compare) {
		x := m.exec[rid]
		inputs := make([]rel.Tuple, len(x.vids))
		for i, vid := range x.vids {
			inputs[i] = m.pins[vid].tuple
		}
		f := eval.NewFiring(x.rule, m.Addr(), inputs, inputs[0], "elsewhere", 1)
		if f.RID != rid {
			panic("scratchView: replayed execution hashes to another RID")
		}
		for range x.count {
			fresh.RecordFiring(f)
		}
	}
	fresh.version = m.version
	return fresh.View()
}

// TestViewIncrementalEquivalence drives a seeded random add / remove /
// re-add workload and checks after every step that the incrementally
// advanced view is indistinguishable from a from-scratch rebuild: both,
// and the store itself, answer every read as a reference model of
// plain maps driven by the same operations does and, whenever the two
// views picked the same spine size (the incremental spine only grows),
// they persist to byte-equal buckets. Advancing must never write a bucket the previous view
// published: the previous view is read on another goroutine while the
// next one is built (the race detector sees a shared write), and its
// persisted form is compared before and after.
func TestViewIncrementalEquivalence(t *testing.T) {
	s := newModelStore("n1")
	rng := rand.New(rand.NewSource(42))
	var universe []rel.Tuple
	for i := 0; i < 300; i++ {
		universe = append(universe, viewTestTuple(i))
	}
	live := map[int]int{}

	prev := s.View()
	prevBytes := persist(prev)
	byteCompared := 0
	const steps = 1000
	for step := 0; step < steps; step++ {
		i := rng.Intn(len(universe))
		tp := universe[i]
		switch {
		case rng.Intn(3) != 0 || live[i] == 0:
			s.AddBase(tp)
			live[i]++
		default:
			s.RemoveBase(tp)
			live[i]--
		}
		if rng.Intn(5) == 0 {
			// Derived entries and rule executions via RecordFiring, both signs.
			in := universe[rng.Intn(len(universe))]
			out := universe[rng.Intn(len(universe))]
			f := eval.NewFiring("r"+strconv.Itoa(rng.Intn(4)), "n1", []rel.Tuple{in}, out, "n1", 1)
			s.RecordFiring(f)
			if rng.Intn(2) == 0 {
				f.Sign = -1
				s.RecordFiring(f)
			}
		}

		read := make(chan persisted)
		go func() { read <- persist(prev) }()
		v := s.View()
		if during := <-read; !reflect.DeepEqual(during, prevBytes) || !reflect.DeepEqual(persist(prev), prevBytes) {
			t.Fatalf("step %d: advancing the view rewrote a bucket of the previous one", step)
		}
		if s.View() != v {
			t.Fatalf("step %d: View at unchanged version rebuilt", step)
		}
		checkViewMatchesStore(t, s, v, step, universe)
		scratch := scratchView(s)
		checkViewMatchesStore(t, s, scratch, step, universe)
		vBytes := persist(v)
		if len(v.prov.m) == len(scratch.prov.m) && len(v.exec.m) == len(scratch.exec.m) && len(v.pins.m) == len(scratch.pins.m) {
			byteCompared++
			if !reflect.DeepEqual(vBytes, persist(scratch)) {
				t.Fatalf("step %d: incremental and from-scratch views persist to different bytes", step)
			}
		}
		prev, prevBytes = v, vBytes
	}
	if byteCompared < steps/2 {
		t.Fatalf("only %d of %d steps compared persisted bytes; the workload no longer keeps the spines in step", byteCompared, steps)
	}
	t.Logf("%d of %d steps compared persisted bytes", byteCompared, steps)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// bucketPointers extracts the identity of every per-bucket map so tests
// can prove structural sharing across view versions.
func bucketPointers[V keyed](b buckets[V]) []uintptr {
	out := make([]uintptr, len(b.m))
	for i, m := range b.m {
		out[i] = reflect.ValueOf(m).Pointer()
	}
	return out
}

func sharedCount(a, b []uintptr) (shared, total int) {
	if len(a) != len(b) {
		return 0, len(b)
	}
	for i := range a {
		if a[i] == b[i] {
			shared++
		}
	}
	return shared, len(b)
}

// TestViewBucketSharing is the tentpole invariant for the provenance
// side: after a single mutation, the next view shares all but O(1)
// buckets with the previous one, and the previous view still reads its
// original contents.
func TestViewBucketSharing(t *testing.T) {
	s := NewStore("n1")
	for i := 0; i < 2000; i++ {
		s.AddBase(viewTestTuple(i))
	}
	v1 := s.View()
	if len(v1.prov.m) < 2 {
		t.Fatalf("want a multi-bucket directory, got %d buckets", len(v1.prov.m))
	}
	probe := viewTestTuple(7)
	wantDerivs, _ := v1.Derivations(probe.VID())

	s.AddBase(viewTestTuple(99991))
	v2 := s.View()
	if v1 == v2 {
		t.Fatal("mutation did not produce a new view")
	}
	shared, total := sharedCount(bucketPointers(v1.prov), bucketPointers(v2.prov))
	if total-shared > 2 {
		t.Fatalf("single mutation cloned %d of %d prov buckets (want ≤ 2)", total-shared, total)
	}
	shared, total = sharedCount(bucketPointers(v1.pins), bucketPointers(v2.pins))
	if total-shared > 2 {
		t.Fatalf("single mutation cloned %d of %d pin buckets (want ≤ 2)", total-shared, total)
	}
	// The old view is untouched by the mutation (no aliasing).
	gotDerivs, ok := v1.Derivations(probe.VID())
	if !ok || len(gotDerivs) != len(wantDerivs) {
		t.Fatal("prior view changed after store mutation")
	}
	if _, ok := v1.TupleOf(viewTestTuple(99991).VID()); ok {
		t.Fatal("prior view sees a tuple pinned after it was frozen")
	}
	if _, ok := v2.TupleOf(viewTestTuple(99991).VID()); !ok {
		t.Fatal("new view missing the new pin")
	}

	// Removal: the removed key disappears from the new view only.
	s.RemoveBase(probe)
	v3 := s.View()
	if _, ok := v3.Derivations(probe.VID()); ok {
		t.Fatal("new view still derives a removed base tuple")
	}
	if _, ok := v2.Derivations(probe.VID()); !ok {
		t.Fatal("prior view lost a derivation after a later removal")
	}
}

// TestCountOnlyChangeCopiesNothing: counts and refcounts live beside
// the bucket slots, so a duplicate derivation, a second pin reference
// and a repeated firing move the version but the next view is handed
// the very spines and buckets the last one holds.
func TestCountOnlyChangeCopiesNothing(t *testing.T) {
	s := NewStore("n1")
	for i := 0; i < 500; i++ {
		s.AddBase(viewTestTuple(i))
	}
	f := eval.NewFiring("r1", "n1", []rel.Tuple{viewTestTuple(1)}, viewTestTuple(2), "n1", 1)
	s.RecordFiring(f)
	v1 := s.View()
	s.AddBase(viewTestTuple(3))
	s.RecordFiring(f)
	v2 := s.View()
	if v2 == v1 || v2.Version() == v1.Version() {
		t.Fatal("count-only changes did not advance the version")
	}
	for name, pair := range map[string][2][]uintptr{
		"prov": {bucketPointers(v1.prov), bucketPointers(v2.prov)},
		"exec": {bucketPointers(v1.exec), bucketPointers(v2.exec)},
		"pins": {bucketPointers(v1.pins), bucketPointers(v2.pins)},
	} {
		if shared, total := sharedCount(pair[0], pair[1]); shared != total {
			t.Errorf("%s: count-only changes copied %d of %d buckets", name, total-shared, total)
		}
	}
	if &v1.prov.m[0] != &v2.prov.m[0] || &v1.pins.m[0] != &v2.pins.m[0] {
		t.Error("count-only changes copied a spine")
	}
	if got := s.SupportCount(viewTestTuple(3).VID()); got != 2 {
		t.Fatalf("SupportCount = %d, want 2", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestViewGrowRebuild: when the directory outgrows its spine the next
// view rebuilds at the larger size and subsequent updates are
// incremental again at the new size.
func TestViewGrowRebuild(t *testing.T) {
	s := NewStore("n1")
	s.AddBase(viewTestTuple(0))
	v1 := s.View()
	small := len(v1.prov.m)
	for i := 1; i < 5000; i++ {
		s.AddBase(viewTestTuple(i))
	}
	v2 := s.View()
	if len(v2.prov.m) <= small {
		t.Fatalf("directory did not grow: %d -> %d buckets", small, len(v2.prov.m))
	}
	s.AddBase(viewTestTuple(99999))
	v3 := s.View()
	if len(v3.prov.m) != len(v2.prov.m) {
		t.Fatal("steady-state update changed the spine size")
	}
	shared, total := sharedCount(bucketPointers(v2.prov), bucketPointers(v3.prov))
	if total-shared > 2 {
		t.Fatalf("post-grow update cloned %d of %d buckets", total-shared, total)
	}
}

// TestSpineFollowsViewsNotPeaks: between views an overloaded directory
// grows as inserts arrive, but a view's spine is still picked from the
// keys it holds and the last view's spine, so a burst that is retracted
// before the next view leaves the view, and its persisted bytes, as if
// the burst never happened.
func TestSpineFollowsViewsNotPeaks(t *testing.T) {
	s := NewStore("n1")
	for i := 0; i < 100; i++ {
		s.AddBase(viewTestTuple(i))
	}
	before := persist(s.View())
	for i := 100; i < 5000; i++ {
		s.AddBase(viewTestTuple(i))
	}
	if n := len(s.pins.m); n*bucketTarget < 4900 {
		t.Fatalf("a store 4900 keys past its view kept %d buckets", n)
	}
	for i := 100; i < 5000; i++ {
		s.RemoveBase(viewTestTuple(i))
	}
	if after := persist(s.View()); !reflect.DeepEqual(after, before) {
		t.Fatal("a retracted burst changed the next view's persisted buckets")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHeldViewSurvivesRerecording: a view's exec and pins buckets point
// at the store's own records. While the store, on another goroutine,
// retracts and re-records the same RID and unpins and re-pins the same
// VIDs, a view taken before keeps answering Exec and TupleOf with what
// it held and persists to the same bytes. The race detector sees any
// write to a record a view points at.
func TestHeldViewSurvivesRerecording(t *testing.T) {
	s := NewStore("n1")
	in, out := viewTestTuple(1), viewTestTuple(2)
	f := eval.NewFiring("r1", "n1", []rel.Tuple{in}, out, "n1", 1)
	s.RecordFiring(f)
	for i := 3; i < 200; i++ {
		s.AddBase(viewTestTuple(i)) // enough keys for a multi-bucket spine
	}
	held := s.View()
	wantExec, ok := held.Exec(f.RID)
	if !ok {
		t.Fatal("held view lacks the recorded execution")
	}
	wantIn, _ := held.TupleOf(in.VID())
	wantOut, _ := held.TupleOf(out.VID())
	wantBytes := persist(held)

	done := make(chan struct{})
	go func() {
		defer close(done)
		retract := f
		retract.Sign = -1
		for i := 0; i < 200; i++ {
			s.RecordFiring(retract) // deletes the exec row, unpins in and out
			s.View()
			s.RecordFiring(f) // the same RID and VIDs, recorded afresh
			s.View()
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		gotExec, ok := held.Exec(f.RID)
		if !ok || !reflect.DeepEqual(gotExec, wantExec) {
			t.Fatalf("held Exec = %+v %v, want %+v", gotExec, ok, wantExec)
		}
		gotIn, okIn := held.TupleOf(in.VID())
		gotOut, okOut := held.TupleOf(out.VID())
		if !okIn || !okOut || !gotIn.Equal(wantIn) || !gotOut.Equal(wantOut) {
			t.Fatal("held TupleOf changed while the store re-pinned")
		}
		if !reflect.DeepEqual(persist(held), wantBytes) {
			t.Fatal("held view's persisted buckets changed while the store re-recorded")
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// tieRID returns a hand-made RID with first bytes 0x10 and b7 (through
// byte 7) and byte 8 set to b8. Every RID it makes lands in one bucket
// at any spine size below 256; those with equal b7 tie on the 8-byte
// prefix and sort by b8.
func tieRID(b7, b8 byte) rel.ID {
	var id rel.ID
	id[0], id[7], id[8] = 0x10, b7, b8
	return id
}

// TestDirPrefixTies: three RIDs share their 8-byte prefix, with the
// middle one inserted last between the other two, and two neighbours in
// the same bucket have a lower and a higher prefix. Every directory
// operation keeps ascending ID order and finds each key, and a persisted
// and rebuilt view finds them too.
func TestDirPrefixTies(t *testing.T) {
	low, a, mid, c, high := tieRID(1, 9), tieRID(5, 1), tieRID(5, 2), tieRID(5, 3), tieRID(9, 0)
	want := []rel.ID{low, a, mid, c, high}
	d := newDir[*ExecEntry, int32](1, 1)
	check := func(step string, want []rel.ID) {
		t.Helper()
		if err := checkDir("exec", &d); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		var got []rel.ID
		for e := range d.all() {
			got = append(got, e.v.RID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: directory holds %x, want %x", step, got, want)
		}
		for _, id := range want {
			if b, pos, ok := d.locate(id); !ok || d.m[b][pos].v.RID != id {
				t.Fatalf("%s: locate(%x) = %d, %d, %v", step, id, b, pos, ok)
			}
		}
	}
	for _, id := range []rel.ID{c, a, high, low, mid} {
		b, pos, ok := d.locate(id)
		if ok {
			t.Fatalf("locate(%x) found a key not yet inserted", id)
		}
		d.insert(b, pos, id, &ExecEntry{RID: id, Rule: "r1"}, 1)
	}
	check("insert", want)

	b, pos, _ := d.locate(mid)
	d.set(b, pos, &ExecEntry{RID: mid, Rule: "r2"})
	check("set", want)
	v1 := d.handoff()
	for _, id := range want {
		if e, ok := v1.get(id); !ok || e.RID != id {
			t.Fatalf("handed-off get(%x) = %v, %v", id, e, ok)
		}
	}
	if e, _ := v1.get(mid); e.Rule != "r2" {
		t.Fatalf("get(mid) reads rule %q after set, want r2", e.Rule)
	}
	d.resize(8)
	check("resize", want)

	b, pos, _ = d.locate(a)
	d.remove(b, pos)
	rest := []rel.ID{low, mid, c, high}
	check("remove", rest)
	if _, ok := v1.get(a); !ok {
		t.Fatal("a remove after handoff reached the handed-off bucket")
	}

	v := &View{
		prov: buckets[entryList]{m: make([][]kv[entryList], 1)},
		exec: d.handoff(),
		pins: buckets[*pin]{m: make([][]kv[*pin], 1)},
	}
	prov, exec, pins := v.PersistBuckets()
	got, err := RebuildView("n0", 1, prov, exec, pins)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range rest {
		if e, ok := got.Exec(id); !ok || e.RID != id {
			t.Fatalf("rebuilt Exec(%x) = %v, %v", id, e, ok)
		}
	}
	if _, ok := got.Exec(a); ok {
		t.Fatal("rebuilt view finds a removed key")
	}
	if _, again, _ := got.PersistBuckets(); !reflect.DeepEqual(again, exec) {
		t.Fatal("rebuilt exec buckets persist to different bytes")
	}
}

// TestCheckInvariantsCatchesWrongPrefix plants one slot whose prefix is
// not its key's: the directory check must name it.
func TestCheckInvariantsCatchesWrongPrefix(t *testing.T) {
	s := NewStore("n1")
	s.RecordFiring(eval.NewFiring("r1", "n1", []rel.Tuple{viewTestTuple(1)}, viewTestTuple(2), "n1", 1))
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s.exec.m[0][0].pre ^= 1
	if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "prefix") {
		t.Fatalf("a slot beside a wrong prefix: CheckInvariants = %v", err)
	}
}
