package provenance

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/eval"
	"repro/internal/rel"
	"repro/internal/wire"
)

func persistFixtureView(t testing.TB, n int) *View {
	t.Helper()
	s := NewStore("n0")
	var prev rel.Tuple
	for i := 0; i < n; i++ {
		base := rel.NewTuple("link", rel.Addr("n0"), rel.Int(int64(i)))
		s.AddBase(base)
		if i > 0 {
			out := rel.NewTuple("path", rel.Addr("n0"), rel.Int(int64(i)))
			s.RecordFiring(eval.NewFiring("r1", "n0", []rel.Tuple{prev, base}, out, "n0", 1))
		}
		prev = base
	}
	return s.View()
}

func TestViewPersistRebuildRoundtrip(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 900} {
		v := persistFixtureView(t, n)
		prov, exec, pins := v.PersistBuckets()
		got, err := RebuildView(v.Addr(), v.Version(), prov, exec, pins)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Addr() != v.Addr() || got.Version() != v.Version() {
			t.Fatalf("n=%d: identity drift", n)
		}
		if got.Statistics() != v.Statistics() {
			t.Fatalf("n=%d: stats %+v vs %+v", n, got.Statistics(), v.Statistics())
		}
		for i := 0; i < n; i++ {
			base := rel.NewTuple("link", rel.Addr("n0"), rel.Int(int64(i)))
			wantEnts, wantOK := v.Derivations(base.VID())
			gotEnts, gotOK := got.Derivations(base.VID())
			if wantOK != gotOK || len(wantEnts) != len(gotEnts) {
				t.Fatalf("n=%d: derivations for base %d drifted", n, i)
			}
			for j := range wantEnts {
				if wantEnts[j] != gotEnts[j] {
					t.Fatalf("n=%d: derivation entry %d/%d drifted", n, i, j)
				}
			}
			wantTp, ok1 := v.TupleOf(base.VID())
			gotTp, ok2 := got.TupleOf(base.VID())
			if ok1 != ok2 || (ok1 && !wantTp.Equal(gotTp)) {
				t.Fatalf("n=%d: pin for base %d drifted", n, i)
			}
			if i == 0 {
				continue
			}
			derived := rel.NewTuple("path", rel.Addr("n0"), rel.Int(int64(i)))
			ents, ok := got.Derivations(derived.VID())
			if !ok || len(ents) == 0 {
				t.Fatalf("n=%d: derived tuple %d lost its provenance", n, i)
			}
			ex, ok := got.Exec(ents[0].RID)
			if !ok {
				t.Fatalf("n=%d: exec row for %d missing", n, i)
			}
			wantEx, _ := v.Exec(ents[0].RID)
			if ex.Rule != wantEx.Rule || len(ex.VIDs) != len(wantEx.VIDs) {
				t.Fatalf("n=%d: exec row for %d drifted", n, i)
			}
			for j := range ex.VIDs {
				if ex.VIDs[j] != wantEx.VIDs[j] {
					t.Fatalf("n=%d: exec input %d/%d drifted", n, i, j)
				}
			}
		}
	}
}

func TestRebuildViewRejectsCorruptBuckets(t *testing.T) {
	v := persistFixtureView(t, 50)
	prov, exec, pins := v.PersistBuckets()

	// A non-power-of-two spine is rejected.
	if _, err := RebuildView("n0", v.Version(), prov[:len(prov)-1], exec, pins); len(prov) > 1 && err == nil {
		t.Fatal("truncated prov spine accepted")
	}
	// A bucket whose entry hashes to a different bucket is rejected:
	// swap two non-empty prov buckets.
	a, b := -1, -1
	for i, bk := range prov {
		if len(bk) == 0 {
			continue
		}
		if a < 0 {
			a = i
		} else if b < 0 {
			b = i
			break
		}
	}
	if a >= 0 && b >= 0 {
		swapped := append([][]byte(nil), prov...)
		swapped[a], swapped[b] = swapped[b], swapped[a]
		if _, err := RebuildView("n0", v.Version(), swapped, exec, pins); err == nil {
			t.Fatal("misplaced bucket entries accepted")
		}
	}
	// Trailing garbage in a bucket is rejected.
	for i, bk := range prov {
		if len(bk) == 0 {
			continue
		}
		mangled := append([][]byte(nil), prov...)
		mangled[i] = append(append([]byte(nil), bk...), 0xFF)
		if _, err := RebuildView("n0", v.Version(), mangled, exec, pins); err == nil {
			t.Fatal("trailing bucket bytes accepted")
		}
		break
	}

}

// pinsBucket encodes a pins bucket holding the tuples in the order given.
func pinsBucket(tuples ...rel.Tuple) []byte {
	b := wire.AppendUvarint(nil, uint64(len(tuples)))
	for _, tp := range tuples {
		vid := tp.VID()
		b = append(b, vid[:]...)
		b = rel.AppendTuple(b, tp)
	}
	return b
}

func decodePinsBucket(enc []byte) ([]kv[*pin], error) {
	// One bucket, mask 0: every key belongs, so only order can reject.
	return decodeBucket(enc, 0, 0, func(r *wire.Reader, vid rel.ID) *pin { return &pin{vid: vid, t: rel.DecodeTuple(r)} })
}

// provBucket encodes a prov bucket of one key with n derivations.
func provBucket(vid rel.ID, n int) []byte {
	return provBucketOf(vid, make([]rel.ID, n)...)
}

// provBucketOf encodes a prov bucket of one key with one derivation per
// RID, in the order given, each executed at n1.
func provBucketOf(vid rel.ID, rids ...rel.ID) []byte {
	b := wire.AppendUvarint(nil, 1)
	b = append(b, vid[:]...)
	b = wire.AppendUvarint(b, uint64(len(rids)))
	for _, rid := range rids {
		b = append(b, rid[:]...)
		b = wire.AppendString(b, "n1")
	}
	return b
}

// A derivation list is bisected in compareEntry order, so a decoded one
// must ascend strictly, as CheckInvariants demands of the store.
func TestRebuildViewRejectsUnorderedDerivations(t *testing.T) {
	vid := viewTestTuple(1).VID()
	lo, hi := orderedPair()
	one := [][]byte{nil}
	v, err := RebuildView("n0", 1, [][]byte{provBucketOf(vid, lo.VID(), hi.VID())}, one, one)
	if err != nil {
		t.Fatal(err)
	}
	if ents, ok := v.Derivations(vid); !ok || len(ents) != 2 || ents[0].RID != lo.VID() || ents[1].RID != hi.VID() {
		t.Fatalf("Derivations = %v, %v", ents, ok)
	}
	for name, rids := range map[string][]rel.ID{
		"descending": {hi.VID(), lo.VID()},
		"repeated":   {lo.VID(), lo.VID()},
	} {
		if _, err := RebuildView("n0", 1, [][]byte{provBucketOf(vid, rids...)}, one, one); !errors.Is(err, errDerivationOrder) {
			t.Errorf("%s RIDs: err = %v, want errDerivationOrder", name, err)
		}
	}
}

// A prov slot's key is its list's first VID, and the store never holds
// an empty list: a persisted key with no derivation is corrupt.
func TestRebuildViewRejectsEmptyDerivationList(t *testing.T) {
	vid := viewTestTuple(1).VID()
	one := [][]byte{nil}
	v, err := RebuildView("n0", 1, [][]byte{provBucket(vid, 1)}, one, one)
	if err != nil {
		t.Fatal(err)
	}
	if ents, ok := v.Derivations(vid); !ok || len(ents) != 1 || ents[0].VID != vid {
		t.Fatalf("Derivations = %v, %v", ents, ok)
	}
	if _, err := RebuildView("n0", 1, [][]byte{provBucket(vid, 0)}, one, one); !errors.Is(err, errNoDerivation) {
		t.Fatalf("a prov key with no derivation: err = %v, want errNoDerivation", err)
	}
}

// orderedPair returns two tuples in ascending VID order.
func orderedPair() (lo, hi rel.Tuple) {
	lo, hi = viewTestTuple(1), viewTestTuple(2)
	if lo.VID().Compare(hi.VID()) > 0 {
		lo, hi = hi, lo
	}
	return lo, hi
}

// A bucket is searched by bisection, so a decoded one must hold its keys
// in strictly ascending order: anything else is corrupt, not re-sorted.
func TestDecodeBucketRejectsUnorderedKeys(t *testing.T) {
	lo, hi := orderedPair()
	if bucket, err := decodePinsBucket(pinsBucket(lo, hi)); err != nil || len(bucket) != 2 {
		t.Fatalf("ascending keys: %v, %v", bucket, err)
	}
	if _, err := decodePinsBucket(pinsBucket(hi, lo)); err == nil {
		t.Fatal("descending keys accepted")
	}
	if _, err := decodePinsBucket(pinsBucket(lo, lo)); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if _, err := decodePinsBucket(pinsBucket()); err == nil {
		t.Fatal("empty bucket encoded non-nil accepted")
	}
}

// FuzzDecodeBucket: whatever the bytes, a bucket that decodes, as a
// one-bucket prov, exec or pins spine, is one every key of which sits
// beside its own prefix and the bisecting lookup finds, and it
// re-encodes to exactly its input: the persisted form is the one the
// bucket was decoded from.
func FuzzDecodeBucket(f *testing.F) {
	lo, hi := orderedPair()
	f.Add(pinsBucket(lo, hi))
	f.Add(pinsBucket(hi, lo))
	f.Add(pinsBucket(lo, lo))
	f.Add(pinsBucket())
	_, _, pins := persistFixtureView(f, 5).PersistBuckets()
	f.Add(pins[0])
	f.Add(provBucket(lo.VID(), 0))
	f.Add(provBucketOf(lo.VID(), hi.VID(), lo.VID()))
	f.Fuzz(func(t *testing.T, enc []byte) {
		if enc == nil {
			return
		}
		for spine := SpineProv; spine <= SpinePins; spine++ {
			dirs := [3][][]byte{{nil}, {nil}, {nil}}
			dirs[spine][0] = enc
			v, err := RebuildView("n0", 1, dirs[SpineProv], dirs[SpineExec], dirs[SpinePins])
			if err != nil {
				continue
			}
			switch spine {
			case SpineProv:
				checkDecoded(t, v.prov)
			case SpineExec:
				checkDecoded(t, v.exec)
			default:
				checkDecoded(t, v.pins)
			}
			if got := (Bucket{Spine: spine, v: v}).AppendTo(nil); !bytes.Equal(got, enc) {
				t.Fatalf("spine %d: bucket %x re-encodes as %x", spine, enc, got)
			}
		}
	})
}

// checkDecoded checks a one-bucket directory: each slot's prefix is its
// key's, keys ascend strictly, and get finds every key.
func checkDecoded[V keyed](t *testing.T, b buckets[V]) {
	t.Helper()
	bucket := b.m[0]
	for k, e := range bucket {
		id := e.v.key()
		if e.pre != prefix(id) {
			t.Fatalf("slot %d holds prefix %016x beside key %s", k, e.pre, id.Short())
		}
		if k > 0 && bucket[k-1].v.key().Compare(id) >= 0 {
			t.Fatalf("accepted bucket is not strictly ascending at %d", k)
		}
		if _, ok := b.get(id); !ok {
			t.Fatalf("accepted bucket does not find its own key %s", id.Short())
		}
	}
}
