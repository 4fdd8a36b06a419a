package eval

import (
	"fmt"
	"sort"

	"repro/internal/rel"
)

// Store holds the materialized tables of one node.
type Store struct {
	cat    *rel.Catalog
	tables map[string]*rel.Table
}

// NewStore creates a store over the catalog. Tables for persistent
// relations are created lazily on first touch.
func NewStore(cat *rel.Catalog) *Store {
	return &Store{cat: cat, tables: map[string]*rel.Table{}}
}

// Catalog returns the store's catalog.
func (s *Store) Catalog() *rel.Catalog { return s.cat }

// Table returns the table for a persistent relation, creating it on
// first use. It returns an error for unknown or transient relations.
func (s *Store) Table(name string) (*rel.Table, error) {
	if t, ok := s.tables[name]; ok {
		return t, nil
	}
	sch, ok := s.cat.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("eval: unknown relation %s", name)
	}
	if !sch.Persistent {
		return nil, fmt.Errorf("eval: relation %s is transient (event), has no table", name)
	}
	t := rel.NewTable(sch)
	s.tables[name] = t
	return t, nil
}

// TableNames returns the names of all instantiated tables, sorted.
func (s *Store) TableNames() []string {
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns every visible tuple of every table, sorted, for
// logging and test assertions.
func (s *Store) Snapshot() []rel.Tuple {
	var out []rel.Tuple
	for _, name := range s.TableNames() {
		out = append(out, s.tables[name].Tuples()...)
	}
	return out
}

// StateVersion summarizes the visible state of every table as one
// monotonically increasing counter (the sum of per-table visibility
// versions plus the table count). Snapshot publishers compare it across
// epochs to skip nodes whose state did not change.
func (s *Store) StateVersion() uint64 {
	v := uint64(len(s.tables))
	for _, t := range s.tables {
		v += t.Version()
	}
	return v
}

// FreezeAll freezes every instantiated table (empty ones included —
// an instantiated-but-empty relation is still part of the published
// state) and returns the persistent frozen views keyed by relation,
// plus the total visible tuple count. Freezing is O(1) per table (and
// returns the identical *rel.Frozen while a table's version is
// unchanged), so the publisher can hand whole node states across
// epochs by structural sharing.
func (s *Store) FreezeAll() (map[string]*rel.Frozen, int) {
	out := make(map[string]*rel.Frozen, len(s.tables))
	total := 0
	for name, t := range s.tables {
		f := t.Freeze()
		out[name] = f
		total += f.Len()
	}
	return out, total
}
