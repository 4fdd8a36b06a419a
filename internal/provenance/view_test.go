package provenance

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/eval"
	"repro/internal/rel"
)

func viewTestTuple(i int) rel.Tuple {
	return rel.NewTuple("route", rel.Addr("as"+strconv.Itoa(i%61)), rel.Int(int64(i)))
}

// checkViewMatchesStore asserts the frozen view answers every query the
// store answers (and none it doesn't), over the given key universe.
func checkViewMatchesStore(t *testing.T, s *Store, v *View, step int, universe []rel.Tuple) {
	t.Helper()
	if v.Version() != s.Version() {
		t.Fatalf("step %d: view version %d != store %d", step, v.Version(), s.Version())
	}
	if got, want := v.Statistics(), s.Statistics(); got != want {
		t.Fatalf("step %d: view stats %+v != store %+v", step, got, want)
	}
	for _, tp := range universe {
		vid := tp.VID()
		sd, sok := s.Derivations(vid)
		vd, vok := v.Derivations(vid)
		if sok != vok || len(sd) != len(vd) {
			t.Fatalf("step %d: Derivations(%s) view (%d,%v) != store (%d,%v)",
				step, vid.Short(), len(vd), vok, len(sd), sok)
		}
		for i := range sd {
			if sd[i] != vd[i] {
				t.Fatalf("step %d: Derivations(%s)[%d] mismatch", step, vid.Short(), i)
			}
		}
		st, sok := s.TupleOf(vid)
		vt, vok := v.TupleOf(vid)
		if sok != vok || (sok && st.Compare(vt) != 0) {
			t.Fatalf("step %d: TupleOf(%s) mismatch", step, vid.Short())
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for rid := range s.exec {
		se := s.exec[rid]
		ve, ok := v.Exec(rid)
		if !ok || ve.Rule != se.exec.Rule || len(ve.VIDs) != len(se.exec.VIDs) {
			t.Fatalf("step %d: Exec(%s) mismatch", step, rid.Short())
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

// scratchView rebuilds the store's current state from nothing (the
// first-build path) and puts the incrementally advanced view back, so
// the next View() still advances from it.
func scratchView(s *Store) *View {
	inc := s.View()
	s.view = nil
	scratch := s.View()
	s.view = inc
	return scratch
}

// TestViewIncrementalEquivalence drives a seeded random add / remove /
// re-add workload and checks after every step that the incrementally
// advanced view is indistinguishable from a from-scratch rebuild: the
// same answers to every read and, whenever the two picked the same
// spine size (the incremental spine only grows), byte-equal persisted
// buckets. Advancing must never write a bucket the previous view
// published: the previous view is read on another goroutine while the
// next one is built (the race detector sees a shared write), and its
// persisted form is compared before and after.
func TestViewIncrementalEquivalence(t *testing.T) {
	s := NewStore("n1")
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
func bucketPointers[V any](b buckets[V]) []uintptr {
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
