package rel

import (
	"slices"
	"testing"
)

func persistTuple(k int) Tuple {
	return NewTuple("link", Addr("n0"), Int(int64(k)))
}

func TestFrozenRunsRebuildRoundtrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, 255, 256, 257, 1000, 5000} {
		tbl := NewTable(NewSchema("link", 2))
		for i := 0; i < n; i++ {
			tbl.Apply(persistTuple(i), 1)
		}
		f := tbl.Freeze()
		var runs [][]Tuple
		f.Runs(func(run []*Tuple) {
			ts := make([]Tuple, len(run))
			for i, tp := range run {
				ts[i] = *tp
			}
			runs = append(runs, ts)
		})
		got, err := RebuildFrozen(f.Version(), runs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Len() != f.Len() || got.Version() != f.Version() {
			t.Fatalf("n=%d: len/version drift: %d/%d vs %d/%d",
				n, got.Len(), got.Version(), f.Len(), f.Version())
		}
		want := f.Tuples()
		have := got.Tuples()
		for i := range want {
			if !have[i].Equal(want[i]) {
				t.Fatalf("n=%d: tuple %d differs", n, i)
			}
		}
	}
}

func TestFrozenRunsAreCapacityCapped(t *testing.T) {
	// Appending to a visited run must never scribble into the frozen
	// chunk's backing array: the callback slices are capacity-capped.
	tbl := NewTable(NewSchema("link", 2))
	for i := 0; i < 600; i++ {
		tbl.Apply(persistTuple(i), 1)
	}
	f := tbl.Freeze()
	want := f.Tuples()
	f.Runs(func(run []*Tuple) {
		extra := persistTuple(999999)
		_ = append(run, &extra)
	})
	have := f.Tuples()
	for i := range want {
		if !have[i].Equal(want[i]) {
			t.Fatalf("Runs callback append mutated frozen tuple %d", i)
		}
	}
}

func TestFrozenEachAbsent(t *testing.T) {
	tbl := NewTable(NewSchema("link", 2))
	for i := 0; i < 700; i += 2 {
		tbl.Apply(persistTuple(i), 1)
	}
	f := tbl.Freeze()
	absent := func(f *Frozen, ks []int) []int {
		run := make([]*Tuple, len(ks))
		for i, k := range ks {
			tp := persistTuple(k)
			run[i] = &tp
		}
		var out []int
		f.EachAbsent(run, func(tp Tuple) {
			for i := range run {
				if run[i].Equal(tp) {
					out = append(out, ks[i])
				}
			}
		})
		return out
	}
	// Runs starting before, inside and after the set, crossing chunk
	// boundaries; odd keys and keys outside [0, 700) are absent.
	for _, start := range []int{-3, 0, 1, 255, 256, 511, 690, 698, 699, 800} {
		for _, step := range []int{1, 2, 3, 7} {
			var ks, want []int
			for k := start; k < start+60*step; k += step {
				ks = append(ks, k)
				if k < 0 || k >= 700 || k%2 != 0 {
					want = append(want, k)
				}
			}
			if got := absent(f, ks); !slices.Equal(got, want) {
				t.Fatalf("start %d step %d: absent %v, want %v", start, step, got, want)
			}
		}
	}
	if got := absent(nil, []int{1, 2}); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("nil frozen: absent %v", got)
	}
	var empty *Frozen = NewTable(NewSchema("link", 2)).Freeze()
	if got := absent(empty, []int{0}); !slices.Equal(got, []int{0}) {
		t.Fatalf("empty frozen: absent %v", got)
	}
	if got := absent(f, nil); got != nil {
		t.Fatalf("empty run: absent %v", got)
	}
}

func TestRebuildFrozenRejectsMalformedRuns(t *testing.T) {
	if _, err := RebuildFrozen(1, [][]Tuple{{}}); err == nil {
		t.Fatal("empty run accepted")
	}
	if _, err := RebuildFrozen(1, [][]Tuple{{persistTuple(2)}, {persistTuple(1)}}); err == nil {
		t.Fatal("descending runs accepted")
	}
	if _, err := RebuildFrozen(1, [][]Tuple{{persistTuple(1), persistTuple(1)}}); err == nil {
		t.Fatal("duplicate tuple accepted")
	}
	if _, err := RebuildFrozen(1, [][]Tuple{{persistTuple(1)}, {persistTuple(1)}}); err == nil {
		t.Fatal("duplicate across runs accepted")
	}
}
