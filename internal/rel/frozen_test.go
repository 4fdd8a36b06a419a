package rel

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"
)

func newFrozenTestTable(t *testing.T) *Table {
	t.Helper()
	s := NewSchema("route", 3, 0)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewTable(s)
}

func routeTuple(i int) Tuple {
	return NewTuple("route", Addr("as"+itoa(i%97)), Addr("as"+itoa(i%53)), Int(int64(i)))
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// TestFrozenModel drives a long random insert/delete sequence against
// both the chunked table and a plain sorted-reference model, checking
// the persistent spine's view matches the reference after every freeze.
func TestFrozenModel(t *testing.T) {
	tbl := newFrozenTestTable(t)
	rng := rand.New(rand.NewSource(8))
	var ref []Tuple
	counts := map[ID]int{} // VID -> derivation count (visible while > 0)

	refHas := func(tp Tuple) bool { return counts[tp.VID()] > 0 }
	refAdd := func(tp Tuple) {
		k := tp.VID()
		counts[k]++
		if counts[k] == 1 {
			ref = append(ref, tp)
		}
	}
	refDel := func(tp Tuple) {
		k := tp.VID()
		counts[k]--
		if counts[k] <= 0 {
			delete(counts, k)
			for i, r := range ref {
				if r.Compare(tp) == 0 {
					ref = append(ref[:i], ref[i+1:]...)
					break
				}
			}
		}
	}

	check := func(step int) {
		f := tbl.Freeze()
		got := f.Tuples()
		want := append([]Tuple(nil), ref...)
		sort.Slice(want, func(i, j int) bool { return want[i].Compare(want[j]) < 0 })
		if len(got) != len(want) {
			t.Fatalf("step %d: len=%d want %d", step, len(got), len(want))
		}
		if f.Len() != len(want) {
			t.Fatalf("step %d: Len()=%d want %d", step, f.Len(), len(want))
		}
		for i := range got {
			if got[i].Compare(want[i]) != 0 {
				t.Fatalf("step %d: tuple %d = %v want %v", step, i, got[i], want[i])
			}
		}
		// The sorted view must also match what a scratch re-sort of the
		// row map produces (the old eager path's output).
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Compare(got[j]) < 0 }) {
			t.Fatalf("step %d: frozen view not sorted", step)
		}
	}

	for step := 0; step < 6000; step++ {
		tp := routeTuple(rng.Intn(1500))
		if rng.Intn(3) == 0 && refHas(tp) {
			tr := tbl.Apply(tp, -1)
			if tr == Rejected {
				t.Fatalf("step %d: unexpected reject", step)
			}
			refDel(tp)
		} else {
			tbl.Apply(tp, 1)
			refAdd(tp)
		}
		if step%250 == 0 {
			check(step)
		}
	}
	check(-1)
	// Drain everything: spine must collapse to empty and stay consistent.
	for _, tp := range append([]Tuple(nil), ref...) {
		for refHas(tp) {
			tbl.Apply(tp, -1)
			refDel(tp)
		}
	}
	if got := tbl.Freeze().Tuples(); len(got) != 0 {
		t.Fatalf("drained table still has %d tuples", len(got))
	}
}

// TestFrozenIdentityAtUnchangedVersion: at an unchanged Version(),
// Freeze returns the identical *Frozen, count-only churn keeps it, and
// a visibility transition mints a new one.
func TestFrozenIdentityAtUnchangedVersion(t *testing.T) {
	tbl := newFrozenTestTable(t)
	for i := 0; i < 700; i++ {
		tbl.Apply(routeTuple(i), 1)
	}
	v := tbl.Version()
	f1 := tbl.Freeze()
	f2 := tbl.Freeze()
	if f1 != f2 {
		t.Fatal("Freeze at unchanged version returned a different *Frozen")
	}
	if tbl.Version() != v {
		t.Fatal("read path bumped the version")
	}
	// Count-only churn (NoChange transitions) must not invalidate the view.
	tbl.Apply(routeTuple(3), 1)
	tbl.Apply(routeTuple(3), -1)
	if tbl.Version() != v {
		t.Fatal("count-only churn bumped version")
	}
	if tbl.Freeze() != f1 {
		t.Fatal("count-only churn minted a new *Frozen")
	}
	// A real transition produces a fresh version.
	tbl.Apply(routeTuple(9001), 1)
	f3 := tbl.Freeze()
	if f3 == f1 || f3.Version() == f1.Version() {
		t.Fatal("visibility transition did not produce a new frozen version")
	}
}

// TestFrozenAliasing is the satellite-4 structural-sharing invariant:
// mutating a table after a freeze never changes what a prior frozen
// version reads, even with concurrent readers (run under -race).
func TestFrozenAliasing(t *testing.T) {
	tbl := newFrozenTestTable(t)
	for i := 0; i < 1200; i++ {
		tbl.Apply(routeTuple(i), 1)
	}
	f := tbl.Freeze()
	want := append([]Tuple(nil), f.Tuples()...)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := f.Tuples()
				if len(got) != len(want) {
					t.Errorf("frozen view length changed: %d != %d", len(got), len(want))
					return
				}
				if f.Len() != len(want) {
					t.Errorf("frozen Len changed")
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 4000; step++ {
		tp := routeTuple(rng.Intn(2400))
		if rng.Intn(2) == 0 {
			tbl.Apply(tp, 1)
		} else {
			tbl.Apply(tp, -1)
		}
	}
	close(stop)
	wg.Wait()

	got := f.Tuples()
	for i := range want {
		if got[i].Compare(want[i]) != 0 {
			t.Fatalf("prior version mutated at %d: %v != %v", i, got[i], want[i])
		}
	}
	// Scan must agree with Tuples.
	n := 0
	f.Scan(func(tp Tuple) bool {
		if tp.Compare(want[n]) != 0 {
			t.Fatalf("Scan diverged at %d", n)
		}
		n++
		return true
	})
	if n != len(want) {
		t.Fatalf("Scan visited %d of %d", n, len(want))
	}
}

// TestFrozenNilSafety: absent tables read as empty via nil handles.
func TestFrozenNilSafety(t *testing.T) {
	var f *Frozen
	if f.Len() != 0 || f.Version() != 0 || f.Tuples() != nil {
		t.Fatal("nil Frozen must read as empty")
	}
	f.Scan(func(Tuple) bool { t.Fatal("nil Scan visited a tuple"); return false })
}

// TestFreezeDeltaAllocs bounds the per-freeze cost after a small delta
// on a large table: the next freeze copies only the touched chunk and
// the spine, not the relation.
func TestFreezeDeltaAllocs(t *testing.T) {
	tbl := newFrozenTestTable(t)
	for i := 0; i < 20000; i++ {
		tbl.Apply(routeTuple(i), 1)
	}
	tbl.Freeze()
	i := 20000
	allocs := testing.AllocsPerRun(200, func() {
		tbl.Apply(routeTuple(i), 1)
		i++
		tbl.Freeze()
	})
	// One tuple + one row + chunk COW + spine copy + frozen handle: far
	// below the ~20k-element copy the eager path would need, and flat in
	// table size.
	if allocs > 40 {
		t.Fatalf("per-delta freeze allocates %v allocs/op (want O(delta), not O(table))", allocs)
	}
}

// TestChunkCopyIsPointerSized: the first edit after a freeze copies the
// touched chunk, and that copy costs a pointer a tuple, not the tuple.
// The chunk here holds 256 tuples at its fullest, so a 48-byte-a-tuple
// copy alone would cost 12 kB a cycle.
func TestChunkCopyIsPointerSized(t *testing.T) {
	tbl := newFrozenTestTable(t)
	for i := 0; i < chunkMax-1; i++ {
		tbl.Apply(routeTuple(i), 1)
	}
	extra := routeTuple(chunkMax).Identified()
	cycle := func() {
		tbl.Freeze()
		tbl.Apply(extra, 1)
		tbl.Apply(extra, -1)
	}
	cycle()
	if n := len(tbl.Freeze().chunks); n != 1 {
		t.Fatalf("table spans %d chunks, want 1", n)
	}
	const cycles = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range cycles {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles
	if tupleCopy := uint64(chunkMax) * uint64(unsafe.Sizeof(Tuple{})); perCycle >= tupleCopy {
		t.Fatalf("a freeze/insert/delete cycle allocates %d B, want under the %d B of one tuple-sized chunk copy", perCycle, tupleCopy)
	}
}

// TestFrozenOutlivesRowDeletion: a frozen version points at the rows
// the table held when it froze. Deleting every row, reinserting the
// same tuples as new rows and inserting others must leave what the old
// version reads, through every accessor, untouched — also for readers
// running concurrently with the edits (run under -race).
func TestFrozenOutlivesRowDeletion(t *testing.T) {
	tbl := newFrozenTestTable(t)
	const n = 700
	want := make([]Tuple, n)
	for i := range want {
		want[i] = routeTuple(i)
		tbl.Apply(want[i], 1+i%3)
	}
	slices.SortFunc(want, Tuple.Compare)
	f := tbl.Freeze()

	check := func(f *Frozen) error {
		if got := f.Tuples(); !slices.EqualFunc(got, want, Tuple.Equal) {
			return fmt.Errorf("Tuples: %d tuples, differ from the %d frozen", len(got), len(want))
		}
		k := 0
		f.Scan(func(tp Tuple) bool {
			if k < len(want) && tp.Equal(want[k]) {
				k++
				return true
			}
			return false
		})
		if k != len(want) {
			return fmt.Errorf("Scan: diverged at %d", k)
		}
		var run []*Tuple
		f.Runs(func(r []*Tuple) { run = append(run, r...) })
		if !slices.EqualFunc(run, want, func(a *Tuple, b Tuple) bool { return a.Equal(b) }) {
			return fmt.Errorf("Runs: differ from the frozen tuples")
		}
		var absent int
		f.EachAbsent(run, func(Tuple) { absent++ })
		if absent != 0 {
			return fmt.Errorf("EachAbsent: %d of its own tuples absent", absent)
		}
		return nil
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := check(f); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := range n {
		tp := routeTuple(i)
		if tr := tbl.Apply(tp, -(1 + i%3)); tr != Disappeared {
			t.Fatalf("delete %v: %v, want disappeared", tp, tr)
		}
	}
	for i := range n {
		tbl.Apply(routeTuple(i), 1)
		tbl.Apply(routeTuple(n+i), 1)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := check(f); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != 2*n {
		t.Fatalf("live table holds %d tuples, want %d", got, 2*n)
	}
}
