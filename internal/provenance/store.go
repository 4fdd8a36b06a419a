// Package provenance implements ExSPAN's network provenance model: the
// provenance graph G(V,E) whose vertices are tuples and rule executions,
// maintained incrementally as distributed relations partitioned across
// nodes:
//
//	prov(@Loc, VID, RID, RLoc)      — tuple VID at Loc has a derivation
//	                                  produced by rule execution RID at
//	                                  RLoc; base tuples use the zero RID.
//	ruleExec(@RLoc, RID, Rule, VIDs) — rule execution RID at RLoc ran
//	                                  Rule over input tuples VIDs (all
//	                                  local to RLoc after localization).
//
// Each node owns one Store holding its partition plus a pin table
// mapping VIDs to tuple values so queries can render attributes.
package provenance

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/eval"
	"repro/internal/rel"
)

// Entry is one prov-table row: a single derivation of a tuple.
type Entry struct {
	VID  rel.ID
	RID  rel.ID // rel.ZeroID marks a base-tuple derivation
	RLoc string // node where the rule executed ("" for base)
}

// ExecEntry is one ruleExec-table row: a rule execution's inputs. The
// inputs are tuples local to the executing node. A recorded entry is
// never written: published views point at it.
//
// nettrails:frozen (enforced by the frozenwrite analyzer)
type ExecEntry struct {
	RID  rel.ID
	Rule string
	VIDs []rel.ID
}

func (e *ExecEntry) key() rel.ID { return e.RID }

// entryList is a prov slot's value: one tuple's derivations, never
// empty, each naming the slot's VID.
type entryList []Entry

func (l entryList) key() rel.ID { return l[0].VID }

// pin is a pins slot's record: a tuple under the VID it is pinned by. A
// recorded pin is never written: published views point at it.
//
// nettrails:frozen (enforced by the frozenwrite analyzer)
type pin struct {
	vid rel.ID
	t   rel.Tuple
}

func (p *pin) key() rel.ID { return p.vid }

// Store is one node's partition of the provenance graph. Its three
// bucket directories are the representation views are handed, so a
// view costs a generation bump (view.go). Like the rest of the
// simulated core it runs on one goroutine and takes no lock.
type Store struct {
	addr string
	// prov: VID -> derivation entries in compareEntry order.
	prov dir[entryList, derivs]
	// exec: RID -> rule execution, with its firing count.
	exec dir[*ExecEntry, int32]
	// pins: VID -> tuple value, refcounted by prov entries and by exec
	// input references.
	pins dir[*pin, int32]
	// version increments on every mutation; the query cache uses it for
	// conservative invalidation.
	version uint64
	// view caches the view taken at the current version.
	view *View
	// provCount is the number of distinct prov rows, so Statistics (and
	// every published NodeInfo) is O(1), not O(prov).
	provCount int
}

// derivs sits beside a prov slot: each derivation's duplicate count,
// parallel to the slot's list, and the generation that may write the
// list in place. A list follows its bucket's rule: a view may hold it,
// so the first edit of a generation copies it.
type derivs struct {
	counts []int32
	gen    uint64
}

// NewStore creates the provenance partition for one node.
func NewStore(addr string) *Store {
	return &Store{
		addr: addr,
		prov: newDir[entryList, derivs](1, 1),
		exec: newDir[*ExecEntry, int32](1, 1),
		pins: newDir[*pin, int32](1, 1),
	}
}

// Addr returns the owning node's address.
func (s *Store) Addr() string { return s.addr }

// Version returns the mutation counter.
func (s *Store) Version() uint64 { return s.version }

func (s *Store) pinTuple(t rel.Tuple) {
	vid := t.VID()
	b, pos, ok := s.pins.locate(vid)
	if ok {
		s.pins.side[b][pos]++ // refcount-only change: the view's pinned value is the same
		return
	}
	s.pins.insert(b, pos, vid, &pin{vid: vid, t: t.Identified()}, 1)
}

func (s *Store) unpin(vid rel.ID) {
	b, pos, ok := s.pins.locate(vid)
	if !ok {
		return
	}
	if s.pins.side[b][pos]--; s.pins.side[b][pos] <= 0 {
		s.pins.remove(b, pos)
	}
}

// AddBase records a base-tuple insertion at this node.
func (s *Store) AddBase(t rel.Tuple) {
	t = t.Identified()
	s.version++
	s.addEntry(t, Entry{VID: t.VID()})
}

// RemoveBase retracts a base-tuple derivation.
func (s *Store) RemoveBase(t rel.Tuple) {
	s.version++
	vid := t.VID()
	s.removeEntry(vid, Entry{VID: vid})
}

func (s *Store) addEntry(t rel.Tuple, e Entry) {
	s.pinTuple(t)
	b, pos, ok := s.prov.locate(e.VID)
	if !ok {
		s.prov.insert(b, pos, e.VID, entryList{e}, derivs{counts: []int32{1}, gen: s.prov.now})
		s.provCount++
		return
	}
	list, d := s.prov.m[b][pos].v, &s.prov.side[b][pos]
	k, found := slices.BinarySearchFunc(list, e, compareEntry)
	if found {
		d.counts[k]++ // count-only change: the view's entry list is the same
		return
	}
	s.prov.set(b, pos, slices.Insert(s.ownList(list, d), k, e))
	d.counts = slices.Insert(d.counts, k, 1)
	s.provCount++
}

func (s *Store) removeEntry(vid rel.ID, e Entry) {
	b, pos, ok := s.prov.locate(vid)
	if !ok {
		return
	}
	list, d := s.prov.m[b][pos].v, &s.prov.side[b][pos]
	k, found := slices.BinarySearchFunc(list, e, compareEntry)
	if !found {
		return
	}
	s.unpin(vid)
	if d.counts[k]--; d.counts[k] > 0 {
		return
	}
	s.provCount--
	if len(list) == 1 {
		s.prov.remove(b, pos)
		return
	}
	s.prov.set(b, pos, slices.Delete(s.ownList(list, d), k, k+1))
	d.counts = slices.Delete(d.counts, k, k+1)
}

// ownList returns a derivation list writable in the current
// generation, copying it (with room for one insert) on its first edit.
func (s *Store) ownList(list entryList, d *derivs) entryList {
	if d.gen != s.prov.now {
		list = append(make(entryList, 0, len(list)+1), list...)
		d.gen = s.prov.now
	}
	return list
}

// RecordFiring ingests one rule execution (or its retraction) that ran
// at this node. The firing carries its identity (eval.NewFiring minted
// the RID for this node's address; inputs and output carry their VIDs),
// so nothing is hashed here. It returns the derivation entry for the
// output tuple so the caller can apply it at the output's node.
func (s *Store) RecordFiring(f eval.Firing) Entry {
	if f.RID.IsZero() {
		panic("provenance: RecordFiring: firing carries no RID (build it with eval.NewFiring)")
	}
	s.version++
	e := Entry{VID: f.Output.VID(), RID: f.RID, RLoc: s.addr}
	b, pos, ok := s.exec.locate(f.RID)
	if f.Sign > 0 {
		if ok {
			s.exec.side[b][pos]++ // count-only change: the view's exec row is the same
		} else {
			vids := make([]rel.ID, len(f.Inputs))
			for i, in := range f.Inputs {
				vids[i] = in.VID()
				s.pinTuple(in)
			}
			s.exec.insert(b, pos, f.RID, &ExecEntry{RID: f.RID, Rule: f.RuleName, VIDs: vids}, 1)
		}
		if f.OutputLoc == s.addr {
			s.addEntry(f.Output, e)
		}
	} else {
		if ok {
			if s.exec.side[b][pos]--; s.exec.side[b][pos] <= 0 {
				ex := s.exec.m[b][pos].v
				s.exec.remove(b, pos)
				for _, vid := range ex.VIDs {
					s.unpin(vid)
				}
			}
		}
		if f.OutputLoc == s.addr {
			s.removeEntry(e.VID, e)
		}
	}
	return e
}

// ApplyRemote records (or retracts) a derivation entry for a tuple that
// arrived from another node, where the rule executed.
func (s *Store) ApplyRemote(t rel.Tuple, e Entry, sign int) {
	// The entry is filed under the tuple's own hash: a frame off the
	// wire names a VID too, but the rows and the pin are keyed by what
	// the attributes hash to, and the entry must agree with them.
	e.VID = t.VID()
	s.version++
	if sign > 0 {
		s.addEntry(t, e)
	} else {
		s.removeEntry(e.VID, e)
	}
}

// Derivations returns the derivation entries of a tuple at this node,
// sorted deterministically; ok is false when the tuple is unknown here.
// The returned slice is the store's own list: it must not be mutated,
// and it is valid only until the store's next mutation, which may edit
// it in place. Hold a View to keep a list across mutations.
func (s *Store) Derivations(vid rel.ID) ([]Entry, bool) {
	return s.prov.get(vid)
}

// compareEntry is the derivation order every reader sees: by RID, then
// by the executing node.
func compareEntry(a, b Entry) int {
	if c := a.RID.Compare(b.RID); c != 0 {
		return c
	}
	return strings.Compare(a.RLoc, b.RLoc)
}

// SupportCount returns the total number of derivations (including
// duplicate firings of the same rule execution) currently supporting a
// tuple at this node. It equals the tuple's table derivation count when
// maintenance is consistent.
func (s *Store) SupportCount(vid rel.ID) int {
	b, pos, ok := s.prov.locate(vid)
	if !ok {
		return 0
	}
	n := 0
	for _, c := range s.prov.side[b][pos].counts {
		n += int(c)
	}
	return n
}

// Exec returns the rule execution for a RID at this node.
func (s *Store) Exec(rid rel.ID) (ExecEntry, bool) { return deref(s.exec.get(rid)) }

// TupleOf resolves a pinned VID to its tuple value.
func (s *Store) TupleOf(vid rel.ID) (rel.Tuple, bool) {
	p, ok := deref(s.pins.get(vid))
	return p.t, ok
}

// Stats summarizes the partition's size.
type Stats struct {
	ProvEntries int // distinct prov rows
	ExecEntries int // distinct ruleExec rows
	Pins        int
}

// Statistics returns partition sizes in O(1): the distinct prov-row
// count is maintained incrementally by the mutators.
func (s *Store) Statistics() Stats {
	return Stats{ProvEntries: s.provCount, ExecEntries: s.exec.keys, Pins: s.pins.keys}
}

// ProvTuples renders the partition as prov(@Loc,VID,RID,RLoc) tuples,
// sorted, for snapshots and assertions.
func (s *Store) ProvTuples() []rel.Tuple {
	var out []rel.Tuple
	for e := range s.prov.all() {
		for _, d := range e.v {
			out = append(out, rel.NewTuple("prov",
				rel.Addr(s.addr),
				rel.IDValue(d.VID),
				rel.IDValue(d.RID),
				rel.Addr(d.RLoc)))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// ExecTuples renders the partition as ruleExec(@RLoc,RID,Rule,VIDs)
// tuples, sorted.
func (s *Store) ExecTuples() []rel.Tuple {
	var out []rel.Tuple
	for e := range s.exec.all() {
		vids := make([]rel.Value, len(e.v.VIDs))
		for i, v := range e.v.VIDs {
			vids[i] = rel.IDValue(v)
		}
		out = append(out, rel.NewTuple("ruleExec",
			rel.Addr(s.addr),
			rel.IDValue(e.v.RID),
			rel.Str(e.v.Rule),
			rel.List(vids...)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Digest computes a deterministic hash over the partition's rendered
// prov and ruleExec relations (sorted canonical encodings).
func (s *Store) Digest() rel.ID {
	var b []byte
	for _, t := range s.ProvTuples() {
		b = rel.AppendTuple(b, t)
	}
	for _, t := range s.ExecTuples() {
		b = rel.AppendTuple(b, t)
	}
	return rel.HashBytes(b)
}

// TamperAddProv injects a forged prov entry, bypassing maintenance.
// Test-only hook for exercising traversal over adversarial graphs.
func (s *Store) TamperAddProv(t rel.Tuple, e Entry) {
	s.addEntry(t, e)
}

// TamperAddExec injects a forged rule execution, bypassing maintenance.
// Test-only hook for exercising traversal over adversarial graphs.
func (s *Store) TamperAddExec(rid rel.ID, rule string, inputs []rel.Tuple) {
	vids := make([]rel.ID, len(inputs))
	for i, in := range inputs {
		vids[i] = in.VID()
		s.pinTuple(in)
	}
	e := &ExecEntry{RID: rid, Rule: rule, VIDs: vids}
	if b, pos, ok := s.exec.locate(rid); ok {
		s.exec.set(b, pos, e)
		s.exec.side[b][pos] = 1
	} else {
		s.exec.insert(b, pos, rid, e, 1)
	}
	s.version++
}

// CheckInvariants validates internal consistency: every prov/exec
// reference resolves to a pin; counts are positive; every bucket holds
// its keys where their hash says, in ascending order, with a count
// beside each slot; each prov list is in derivation order. Used by
// tests and failure-injection suites.
func (s *Store) CheckInvariants() error {
	// A prov slot's key is its list's first VID, so the lists are
	// checked for an entry before any key is read.
	for e, side := range s.prov.all() {
		if len(e.v) == 0 || len(side.counts) != len(e.v) {
			return fmt.Errorf("provenance: prov list at prefix %016x has %d entries and %d counts", e.pre, len(e.v), len(side.counts))
		}
	}
	if err := errors.Join(checkDir("prov", &s.prov), checkDir("exec", &s.exec), checkDir("pins", &s.pins)); err != nil {
		return err
	}
	total := 0
	for e, side := range s.prov.all() {
		vid, list, counts := e.v.key(), e.v, side.counts
		total += len(list)
		if _, ok := s.pins.get(vid); !ok {
			return fmt.Errorf("provenance: prov entry for unpinned tuple %s", vid.Short())
		}
		for i, d := range list {
			if counts[i] <= 0 {
				return fmt.Errorf("provenance: non-positive prov count for %s", vid.Short())
			}
			if d.VID != vid || i > 0 && compareEntry(list[i-1], d) >= 0 {
				return fmt.Errorf("provenance: prov list for %s is out of derivation order", vid.Short())
			}
			if !d.RID.IsZero() && d.RLoc == "" {
				return fmt.Errorf("provenance: derived entry without RLoc for %s", vid.Short())
			}
		}
	}
	if total != s.provCount {
		return fmt.Errorf("provenance: provCount drift: counted %d, tracked %d", total, s.provCount)
	}
	for e, count := range s.exec.all() {
		rid := e.v.RID
		if count <= 0 {
			return fmt.Errorf("provenance: non-positive exec count for %s", rid.Short())
		}
		// RecordFiring stores the RID a firing carries; re-derive it here.
		if eval.RuleExecID(e.v.Rule, s.addr, e.v.VIDs) != rid {
			return fmt.Errorf("provenance: exec %s is not the hash of its rule, node and inputs", rid.Short())
		}
		for _, vid := range e.v.VIDs {
			if _, ok := s.pins.get(vid); !ok {
				return fmt.Errorf("provenance: exec %s references unpinned input %s", rid.Short(), vid.Short())
			}
		}
	}
	for e, refs := range s.pins.all() {
		if refs <= 0 {
			return fmt.Errorf("provenance: non-positive pin refs for %s", e.v.vid.Short())
		}
		// Re-hash from the attributes: the VID a pin carries is the key
		// it was stored under, so reading it back would check nothing.
		if (rel.Tuple{Rel: e.v.t.Rel, Vals: e.v.t.Vals}).VID() != e.v.vid {
			return fmt.Errorf("provenance: pin key mismatch for %s", e.v.vid.Short())
		}
	}
	return nil
}

// checkDir checks one directory's shape: every key in the bucket its
// hash names, beside its own prefix, strictly ascending, one side value
// per slot, and the key count tracked.
func checkDir[V keyed, C any](name string, d *dir[V, C]) error {
	keys := 0
	for b, bucket := range d.m {
		if len(d.side[b]) != len(bucket) {
			return fmt.Errorf("provenance: %s bucket %d has %d slots and %d counts", name, b, len(bucket), len(d.side[b]))
		}
		for pos, e := range bucket {
			id := e.v.key()
			if e.pre != prefix(id) {
				return fmt.Errorf("provenance: %s key %s is beside prefix %016x", name, id.Short(), e.pre)
			}
			if bucketIdx(id, d.mask) != uint32(b) || pos > 0 && bucket[pos-1].v.key().Compare(id) >= 0 {
				return fmt.Errorf("provenance: %s key %s is out of place in bucket %d", name, id.Short(), b)
			}
		}
		keys += len(bucket)
	}
	if keys != d.keys {
		return fmt.Errorf("provenance: %s key count drift: counted %d, tracked %d", name, keys, d.keys)
	}
	return nil
}
