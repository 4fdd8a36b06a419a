package rel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func linkTuple(from, to string, cost int64) Tuple {
	return NewTuple("link", Addr(from), Addr(to), Int(cost))
}

func TestSchemaValidate(t *testing.T) {
	if err := NewSchema("r", 3, 0, 1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Schema{
		{Name: "", Arity: 1},
		{Name: "r", Arity: -1},
		{Name: "r", Arity: 1, LocIndex: 2},
		{Name: "r", Arity: 2, KeyCols: []int{5}},
		{Name: "r", Arity: 2, KeyCols: []int{0, 0}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d validated", i)
		}
	}
}

func TestSchemaEffectiveKey(t *testing.T) {
	s := NewSchema("r", 3, 0, 1)
	if got := s.EffectiveKey(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("EffectiveKey = %v", got)
	}
	s2 := NewSchema("r", 3)
	if got := s2.EffectiveKey(); len(got) != 3 {
		t.Fatalf("default key must be all columns, got %v", got)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	s := NewSchema("link", 3, 0, 1)
	if err := c.Define(s); err != nil {
		t.Fatal(err)
	}
	if err := c.Define(s); err != nil {
		t.Fatal("idempotent redefinition should succeed:", err)
	}
	if err := c.Define(NewSchema("link", 4)); err == nil {
		t.Fatal("conflicting redefinition must fail")
	}
	if _, ok := c.Lookup("link"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := c.Lookup("nope"); ok {
		t.Fatal("phantom relation")
	}
	if err := c.Define(&Schema{Name: "ev", Arity: 2}); err != nil {
		t.Fatal(err)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "ev" || names[1] != "link" {
		t.Fatalf("Names = %v", names)
	}
	cl := c.Clone()
	if _, ok := cl.Lookup("link"); !ok {
		t.Fatal("clone lost relation")
	}
}

func TestCatalogCheckTuple(t *testing.T) {
	c := NewCatalog()
	if err := c.Define(NewSchema("link", 3, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckTuple(linkTuple("a", "b", 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckTuple(NewTuple("link", Addr("a"), Addr("b"))); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if err := c.CheckTuple(NewTuple("link", Str("a"), Addr("b"), Int(1))); err == nil {
		t.Fatal("non-addr location must fail")
	}
	if err := c.CheckTuple(NewTuple("ghost", Int(1))); err == nil {
		t.Fatal("undeclared relation must fail")
	}
	if err := c.CheckTuple(Tuple{Rel: "link", Vals: []Value{Addr("a"), {}, Int(1)}}); err == nil {
		t.Fatal("invalid value must fail")
	}
}

func TestTableApplyCounting(t *testing.T) {
	tb := NewTable(NewSchema("link", 3, 0, 1))
	tp := linkTuple("a", "b", 1)
	if tr := tb.Apply(tp, 1); tr != Appeared {
		t.Fatalf("first insert: %v", tr)
	}
	if tr := tb.Apply(tp, 1); tr != NoChange {
		t.Fatalf("second derivation: %v", tr)
	}
	if tb.Len() != 1 || tb.TotalCount() != 2 {
		t.Fatalf("len=%d count=%d", tb.Len(), tb.TotalCount())
	}
	if tr := tb.Apply(tp, -1); tr != NoChange {
		t.Fatalf("first delete: %v", tr)
	}
	if tr := tb.Apply(tp, -1); tr != Disappeared {
		t.Fatalf("final delete: %v", tr)
	}
	if tb.Len() != 0 {
		t.Fatalf("table should be empty, len=%d", tb.Len())
	}
	if tr := tb.Apply(tp, -1); tr != Rejected {
		t.Fatalf("deleting absent tuple: %v", tr)
	}
	if tr := tb.Apply(tp, 0); tr != NoChange {
		t.Fatalf("zero delta: %v", tr)
	}
}

func TestTableGetContains(t *testing.T) {
	tb := NewTable(NewSchema("link", 3, 0, 1))
	tp := linkTuple("a", "b", 1)
	tb.Apply(tp, 1)
	if !tb.Contains(tp) {
		t.Fatal("Contains failed")
	}
	r, ok := tb.Get(tp.VID())
	if !ok || !r.Tuple.Equal(tp) || r.Count != 1 {
		t.Fatalf("Get = %+v %v", r, ok)
	}
}

// probeRows collects what Probe visits.
func probeRows(tb *Table, cols []int, key []Value) []*Row {
	var out []*Row
	tb.Probe(cols, key, func(r *Row) { out = append(out, r) })
	return out
}

func TestTableIndexProbe(t *testing.T) {
	tb := NewTable(NewSchema("link", 3, 0, 1))
	if err := tb.EnsureIndex([]int{0}); err != nil {
		t.Fatal(err)
	}
	tb.Apply(linkTuple("a", "b", 1), 1)
	tb.Apply(linkTuple("a", "c", 2), 1)
	tb.Apply(linkTuple("b", "c", 3), 1)
	got := probeRows(tb, []int{0}, []Value{Addr("a")})
	if len(got) != 2 {
		t.Fatalf("probe a: %d rows", len(got))
	}
	got = probeRows(tb, []int{0}, []Value{Addr("z")})
	if len(got) != 0 {
		t.Fatalf("probe z: %d rows", len(got))
	}
	// Index maintained under delete.
	tb.Apply(linkTuple("a", "b", 1), -1)
	got = probeRows(tb, []int{0}, []Value{Addr("a")})
	if len(got) != 1 {
		t.Fatalf("probe after delete: %d rows", len(got))
	}
}

// An indexed probe runs once per joined row on the evaluator's hot
// path: finding and visiting the matches must not allocate.
func TestTableProbeDoesNotAllocate(t *testing.T) {
	tb := NewTable(NewSchema("link", 3, 0, 1))
	if err := tb.EnsureIndex([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		tb.Apply(linkTuple("a", string(rune('b'+i)), int64(i)), 1)
	}
	cols, key := []int{0, 1}, []Value{Addr("a"), Addr("c")}
	visited := 0
	fn := func(*Row) { visited++ }
	if n := testing.AllocsPerRun(100, func() { tb.Probe(cols, key, fn) }); n != 0 {
		t.Errorf("Probe allocates %v times per call, want 0", n)
	}
	if visited == 0 {
		t.Fatal("probe matched nothing")
	}
}

func TestTableIndexBackfillAndErrors(t *testing.T) {
	tb := NewTable(NewSchema("link", 3, 0, 1))
	tb.Apply(linkTuple("a", "b", 1), 1)
	if err := tb.EnsureIndex([]int{1}); err != nil {
		t.Fatal(err)
	}
	got := probeRows(tb, []int{1}, []Value{Addr("b")})
	if len(got) != 1 {
		t.Fatalf("backfilled probe: %d rows", len(got))
	}
	if err := tb.EnsureIndex([]int{1}); err != nil {
		t.Fatal("re-ensure must be a no-op:", err)
	}
	if err := tb.EnsureIndex([]int{9}); err == nil {
		t.Fatal("out-of-range index column must error")
	}
	// Probe without an index falls back to scan.
	got = probeRows(tb, []int{2}, []Value{Int(1)})
	if len(got) != 1 {
		t.Fatalf("scan probe: %d rows", len(got))
	}
	if got := probeRows(tb, []int{0, 1}, []Value{Addr("a")}); got != nil {
		t.Fatal("mismatched cols/key must return nil")
	}
}

func TestTableKeyConflicts(t *testing.T) {
	tb := NewTable(NewSchema("bestPath", 3, 0, 1)) // key (loc, dst)
	old := NewTuple("bestPath", Addr("a"), Addr("d"), Int(10))
	tb.Apply(old, 1)
	newer := NewTuple("bestPath", Addr("a"), Addr("d"), Int(5))
	conflicts := tb.KeyConflicts(newer)
	if len(conflicts) != 1 || !conflicts[0].Tuple.Equal(old) {
		t.Fatalf("KeyConflicts = %v", conflicts)
	}
	if got := tb.KeyConflicts(old); len(got) != 0 {
		t.Fatal("a tuple must not conflict with itself")
	}
}

func TestTableRowsDeterministic(t *testing.T) {
	tb := NewTable(NewSchema("link", 3, 0, 1))
	tb.Apply(linkTuple("b", "c", 3), 1)
	tb.Apply(linkTuple("a", "b", 1), 1)
	tb.Apply(linkTuple("a", "c", 2), 1)
	tuples := tb.Tuples()
	for i := 1; i < len(tuples); i++ {
		if tuples[i-1].Compare(tuples[i]) >= 0 {
			t.Fatal("Tuples() not sorted")
		}
	}
}

func TestTableScanEarlyStop(t *testing.T) {
	tb := NewTable(NewSchema("link", 3, 0, 1))
	tb.Apply(linkTuple("a", "b", 1), 1)
	tb.Apply(linkTuple("a", "c", 2), 1)
	n := 0
	tb.Scan(func(*Row) bool { n++; return false })
	if n != 1 {
		t.Fatalf("scan visited %d rows after early stop", n)
	}
}

// Property: a random interleaving of inserts and deletes keeps the table
// consistent with a reference multiset implementation.
func TestPropertyTableMatchesReferenceMultiset(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb := NewTable(NewSchema("link", 3, 0, 1))
		_ = tb.EnsureIndex([]int{0})
		ref := map[ID]int{}
		tuples := map[ID]Tuple{}
		for i := 0; i < 200; i++ {
			tp := linkTuple("n"+string(rune('a'+r.Intn(4))), "n"+string(rune('a'+r.Intn(4))), int64(r.Intn(3)))
			vid := tp.VID()
			tuples[vid] = tp
			if r.Intn(3) == 0 {
				tr := tb.Apply(tp, -1)
				switch {
				case ref[vid] == 0 && tr != Rejected:
					return false
				case ref[vid] == 1 && tr != Disappeared:
					return false
				case ref[vid] > 1 && tr != NoChange:
					return false
				}
				if ref[vid] > 0 {
					ref[vid]--
				}
			} else {
				tr := tb.Apply(tp, 1)
				if (ref[vid] == 0) != (tr == Appeared) {
					return false
				}
				ref[vid]++
			}
		}
		visible := 0
		total := 0
		for vid, n := range ref {
			if n > 0 {
				visible++
				total += n
				row, ok := tb.Get(vid)
				if !ok || row.Count != n || !row.Tuple.Equal(tuples[vid]) {
					return false
				}
			} else if _, ok := tb.Get(vid); ok {
				return false
			}
		}
		return tb.Len() == visible && tb.TotalCount() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
