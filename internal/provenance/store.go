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
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

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

type countedEntry struct {
	entry Entry
	count int
}

type countedExec struct {
	exec  ExecEntry
	count int
}

type pin struct {
	tuple rel.Tuple
	refs  int
}

// Store is one node's partition of the provenance graph.
type Store struct {
	mu   sync.RWMutex
	addr string
	// prov: VID -> derivation entries (with duplicate counting).
	prov map[rel.ID][]*countedEntry
	// exec: RID -> rule execution.
	exec map[rel.ID]*countedExec
	// pins: VID -> tuple value, refcounted by prov entries and by exec
	// input references.
	pins map[rel.ID]*pin
	// version increments on every mutation; the query cache uses it for
	// conservative invalidation.
	version uint64
	// view caches the last frozen View built at the current version.
	// Rebuilding advances it incrementally: the dirty sets below record
	// which keys mutated since that view, so View() clones only the
	// buckets holding them (O(mutations), not O(partition)).
	view      *View
	dirtyProv map[rel.ID]struct{}
	dirtyExec map[rel.ID]struct{}
	dirtyPins map[rel.ID]struct{}
	// provCount tracks the number of distinct prov rows incrementally so
	// Statistics (and every published NodeInfo) is O(1), not O(prov).
	provCount int
}

// NewStore creates the provenance partition for one node.
func NewStore(addr string) *Store {
	return &Store{
		addr:      addr,
		prov:      map[rel.ID][]*countedEntry{},
		exec:      map[rel.ID]*countedExec{},
		pins:      map[rel.ID]*pin{},
		dirtyProv: map[rel.ID]struct{}{},
		dirtyExec: map[rel.ID]struct{}{},
		dirtyPins: map[rel.ID]struct{}{},
	}
}

// Addr returns the owning node's address.
func (s *Store) Addr() string { return s.addr }

// Version returns the mutation counter.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

func (s *Store) pinTuple(t rel.Tuple) {
	vid := t.VID()
	if p, ok := s.pins[vid]; ok {
		p.refs++ // refcount-only change: the view's pinned value is the same
		return
	}
	s.pins[vid] = &pin{tuple: t.Identified(), refs: 1}
	s.dirtyPins[vid] = struct{}{}
}

func (s *Store) unpin(vid rel.ID) {
	p, ok := s.pins[vid]
	if !ok {
		return
	}
	p.refs--
	if p.refs <= 0 {
		delete(s.pins, vid)
		s.dirtyPins[vid] = struct{}{}
	}
}

// AddBase records a base-tuple insertion at this node.
func (s *Store) AddBase(t rel.Tuple) {
	t = t.Identified()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	s.addEntryLocked(t, Entry{VID: t.VID()})
}

// RemoveBase retracts a base-tuple derivation.
func (s *Store) RemoveBase(t rel.Tuple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	vid := t.VID()
	s.removeEntryLocked(vid, Entry{VID: vid})
}

func (s *Store) addEntryLocked(t rel.Tuple, e Entry) {
	for _, ce := range s.prov[e.VID] {
		if ce.entry == e {
			ce.count++ // count-only change: the view's entry list is the same
			s.pinTuple(t)
			return
		}
	}
	s.prov[e.VID] = append(s.prov[e.VID], &countedEntry{entry: e, count: 1})
	s.provCount++
	s.dirtyProv[e.VID] = struct{}{}
	s.pinTuple(t)
}

func (s *Store) removeEntryLocked(vid rel.ID, e Entry) {
	list := s.prov[vid]
	for i, ce := range list {
		if ce.entry == e {
			ce.count--
			s.unpin(vid)
			if ce.count <= 0 {
				list[i] = list[len(list)-1]
				list = list[:len(list)-1]
				if len(list) == 0 {
					delete(s.prov, vid)
				} else {
					s.prov[vid] = list
				}
				s.provCount--
				s.dirtyProv[vid] = struct{}{}
			}
			return
		}
	}
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
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	e := Entry{VID: f.Output.VID(), RID: f.RID, RLoc: s.addr}
	if f.Sign > 0 {
		if ce, ok := s.exec[f.RID]; ok {
			ce.count++ // count-only change: the view's exec row is the same
		} else {
			vids := make([]rel.ID, len(f.Inputs))
			for i, in := range f.Inputs {
				vids[i] = in.VID()
				s.pinTuple(in)
			}
			s.exec[f.RID] = &countedExec{exec: ExecEntry{RID: f.RID, Rule: f.RuleName, VIDs: vids}, count: 1}
			s.dirtyExec[f.RID] = struct{}{}
		}
		if f.OutputLoc == s.addr {
			s.addEntryLocked(f.Output, e)
		}
	} else {
		if ce, ok := s.exec[f.RID]; ok {
			ce.count--
			if ce.count <= 0 {
				delete(s.exec, f.RID)
				s.dirtyExec[f.RID] = struct{}{}
				for _, vid := range ce.exec.VIDs {
					s.unpin(vid)
				}
			}
		}
		if f.OutputLoc == s.addr {
			s.removeEntryLocked(e.VID, e)
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
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	if sign > 0 {
		s.addEntryLocked(t, e)
	} else {
		s.removeEntryLocked(e.VID, e)
	}
}

// Derivations returns the derivation entries of a tuple at this node,
// sorted deterministically. ok is false when the tuple is unknown here.
func (s *Store) Derivations(vid rel.ID) ([]Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	list, ok := s.prov[vid]
	if !ok {
		return nil, false
	}
	out := make([]Entry, len(list))
	for i, ce := range list {
		out[i] = ce.entry
	}
	slices.SortFunc(out, compareEntry)
	return out, true
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, ce := range s.prov[vid] {
		n += ce.count
	}
	return n
}

// Exec returns the rule execution for a RID at this node.
func (s *Store) Exec(rid rel.ID) (ExecEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ce, ok := s.exec[rid]
	if !ok {
		return ExecEntry{}, false
	}
	out := ce.exec
	out.VIDs = append([]rel.ID(nil), ce.exec.VIDs...)
	return out, true
}

// TupleOf resolves a pinned VID to its tuple value.
func (s *Store) TupleOf(vid rel.ID) (rel.Tuple, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.pins[vid]
	if !ok {
		return rel.Tuple{}, false
	}
	return p.tuple, true
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{ProvEntries: s.provCount, ExecEntries: len(s.exec), Pins: len(s.pins)}
}

// ProvTuples renders the partition as prov(@Loc,VID,RID,RLoc) tuples,
// sorted, for snapshots and assertions.
func (s *Store) ProvTuples() []rel.Tuple {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []rel.Tuple
	for _, list := range s.prov {
		for _, ce := range list {
			out = append(out, rel.NewTuple("prov",
				rel.Addr(s.addr),
				rel.IDValue(ce.entry.VID),
				rel.IDValue(ce.entry.RID),
				rel.Addr(ce.entry.RLoc)))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// ExecTuples renders the partition as ruleExec(@RLoc,RID,Rule,VIDs)
// tuples, sorted.
func (s *Store) ExecTuples() []rel.Tuple {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []rel.Tuple
	for _, ce := range s.exec {
		vids := make([]rel.Value, len(ce.exec.VIDs))
		for i, v := range ce.exec.VIDs {
			vids[i] = rel.IDValue(v)
		}
		out = append(out, rel.NewTuple("ruleExec",
			rel.Addr(s.addr),
			rel.IDValue(ce.exec.RID),
			rel.Str(ce.exec.Rule),
			rel.List(vids...)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// CheckInvariants validates internal consistency: every prov/exec
// reference resolves to a pin; counts are positive. Used by tests and
// failure-injection suites.
func (s *Store) CheckInvariants() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for vid, list := range s.prov {
		if len(list) == 0 {
			return fmt.Errorf("provenance: empty prov list for %s", vid.Short())
		}
		total += len(list)
		for _, ce := range list {
			if ce.count <= 0 {
				return fmt.Errorf("provenance: non-positive prov count for %s", vid.Short())
			}
			if _, ok := s.pins[vid]; !ok {
				return fmt.Errorf("provenance: prov entry for unpinned tuple %s", vid.Short())
			}
			if !ce.entry.RID.IsZero() && ce.entry.RLoc == "" {
				return fmt.Errorf("provenance: derived entry without RLoc for %s", vid.Short())
			}
		}
	}
	for rid, ce := range s.exec {
		if ce.count <= 0 {
			return fmt.Errorf("provenance: non-positive exec count for %s", rid.Short())
		}
		// RecordFiring stores the RID a firing carries; re-derive it here.
		if eval.RuleExecID(ce.exec.Rule, s.addr, ce.exec.VIDs) != rid {
			return fmt.Errorf("provenance: exec %s is not the hash of its rule, node and inputs", rid.Short())
		}
		for _, vid := range ce.exec.VIDs {
			if _, ok := s.pins[vid]; !ok {
				return fmt.Errorf("provenance: exec %s references unpinned input %s", rid.Short(), vid.Short())
			}
		}
	}
	if total != s.provCount {
		return fmt.Errorf("provenance: provCount drift: counted %d, tracked %d", total, s.provCount)
	}
	for vid, p := range s.pins {
		if p.refs <= 0 {
			return fmt.Errorf("provenance: non-positive pin refs for %s", vid.Short())
		}
		// Re-hash from the attributes: the VID a pin carries is the key
		// it was stored under, so reading it back would check nothing.
		if (rel.Tuple{Rel: p.tuple.Rel, Vals: p.tuple.Vals}).VID() != vid {
			return fmt.Errorf("provenance: pin key mismatch for %s", vid.Short())
		}
	}
	return nil
}
