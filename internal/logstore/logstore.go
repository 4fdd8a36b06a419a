// Package logstore implements NetTrails' central Log Store: per-node
// system snapshots (tables, provenance statistics, topology, traffic)
// captured during execution, shipped to a central store, and replayed
// time-indexed for the interactive visualization (paper §2.3).
package logstore

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/engine"
	"repro/internal/rel"
	"repro/internal/simnet"
)

// MsgKind is the simnet message kind used when shipping snapshots to
// the store's home node.
const MsgKind = "snapshot"

// Snapshot is one node's state at one instant.
type Snapshot struct {
	Time simnet.Time
	Node string
	// Tables: relation -> frozen sorted view of the visible tuples.
	// Frozen views are persistent (structurally shared with the live
	// table and neighboring captures), so a capture costs O(1) per
	// table, not O(tuples) — and an absent relation reads as empty
	// through the nil-safe *rel.Frozen methods.
	Tables map[string]*rel.Frozen
	// ProvEntries / ExecEntries size the provenance partition.
	ProvEntries int
	ExecEntries int
	// Neighbors over up links at capture time.
	Neighbors []string
	// SentMsgs/SentBytes accumulate since network start.
	SentMsgs  int
	SentBytes int
}

// Store collects snapshots centrally.
type Store struct {
	snaps []Snapshot
}

// NewStore creates an empty log store.
func NewStore() *Store { return &Store{} }

// Add appends a snapshot (snapshots must arrive in nondecreasing time
// order per node; Add keeps the global list time-sorted).
func (s *Store) Add(sn Snapshot) {
	s.snaps = append(s.snaps, sn)
	// Insertion sort from the back: captures are near-ordered.
	for i := len(s.snaps) - 1; i > 0 && s.snaps[i].Time < s.snaps[i-1].Time; i-- {
		s.snaps[i], s.snaps[i-1] = s.snaps[i-1], s.snaps[i]
	}
}

// Len returns the number of stored snapshots.
func (s *Store) Len() int { return len(s.snaps) }

// Times returns the distinct capture times, ascending.
func (s *Store) Times() []simnet.Time {
	seen := map[simnet.Time]bool{}
	var out []simnet.Time
	for _, sn := range s.snaps {
		if !seen[sn.Time] {
			seen[sn.Time] = true
			out = append(out, sn.Time)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// At returns, for each node, the latest snapshot with Time <= t.
func (s *Store) At(t simnet.Time) map[string]Snapshot {
	out := map[string]Snapshot{}
	for _, sn := range s.snaps {
		if sn.Time > t {
			break
		}
		out[sn.Node] = sn
	}
	return out
}

// Replay visits each distinct time in order with the system view at
// that time; returning false stops the replay.
func (s *Store) Replay(f func(t simnet.Time, view map[string]Snapshot) bool) {
	for _, t := range s.Times() {
		if !f(t, s.At(t)) {
			return
		}
	}
}

// Capture snapshots one engine node now.
func Capture(e *engine.Engine, addr string) (Snapshot, error) {
	n, ok := e.Node(addr)
	if !ok {
		return Snapshot{}, fmt.Errorf("logstore: unknown node %s", addr)
	}
	sn := Snapshot{
		Time:      e.Net.Now(),
		Node:      addr,
		Tables:    map[string]*rel.Frozen{},
		Neighbors: e.Net.Neighbors(addr),
	}
	for _, relName := range n.RT.Store.TableNames() {
		tbl, err := n.RT.Store.Table(relName)
		if err != nil {
			return Snapshot{}, err
		}
		if fz := tbl.Freeze(); fz.Len() > 0 {
			sn.Tables[relName] = fz
		}
	}
	if n.Prov != nil {
		st := n.Prov.Statistics()
		sn.ProvEntries = st.ProvEntries
		sn.ExecEntries = st.ExecEntries
	}
	sent, _, ok := e.Net.NodeTraffic(addr)
	if ok {
		sn.SentMsgs = sent.Messages
		sn.SentBytes = sent.Bytes
	}
	return sn, nil
}

// Collector periodically captures every node and ships snapshots to
// the central store over the network (so snapshot traffic is itself
// visible in the traffic accounting, as in the real system).
type Collector struct {
	eng   *engine.Engine
	store *Store
	home  string // node where the store lives ("" = out-of-band)
}

// NewCollector attaches a collector. When home names an engine node,
// snapshots travel as messages to it; otherwise they are stored
// directly (out-of-band collection, useful in tests).
func NewCollector(e *engine.Engine, store *Store, home string) (*Collector, error) {
	c := &Collector{eng: e, store: store, home: home}
	if home != "" {
		if _, ok := e.Node(home); !ok {
			return nil, fmt.Errorf("logstore: home node %s does not exist", home)
		}
		err := e.RegisterService(MsgKind, func(n *engine.Node, m simnet.Message) {
			sn, ok := m.Payload.(Snapshot)
			if !ok {
				panic(fmt.Sprintf("logstore: bad payload %T", m.Payload))
			}
			store.Add(sn)
		})
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// CaptureAll snapshots every node once.
func (c *Collector) CaptureAll() error {
	for _, addr := range c.eng.Nodes() {
		sn, err := Capture(c.eng, addr)
		if err != nil {
			return err
		}
		if c.home == "" {
			c.store.Add(sn)
			continue
		}
		if addr == c.home {
			c.store.Add(sn)
			continue
		}
		c.eng.Net.Send(simnet.Message{
			From:     addr,
			To:       c.home,
			Kind:     MsgKind,
			Reliable: true,
			Payload:  sn,
			Size:     snapshotSize(sn),
		})
	}
	return nil
}

// Every schedules recurring captures: one capture now and then every
// interval, for the given number of rounds (0 rounds = just once).
func (c *Collector) Every(interval simnet.Time, rounds int) error {
	if err := c.CaptureAll(); err != nil {
		return err
	}
	if rounds <= 0 {
		return nil
	}
	c.eng.Net.After(interval, func() {
		_ = c.Every(interval, rounds-1)
	})
	return nil
}

func snapshotSize(sn Snapshot) int {
	n := 64
	for _, ts := range sn.Tables {
		for _, t := range ts.Tuples() {
			n += len(rel.MarshalTuple(t))
		}
	}
	return n
}

// Dump writes a human-readable rendition of the store.
func (s *Store) Dump(w io.Writer) error {
	for _, t := range s.Times() {
		view := s.At(t)
		if _, err := fmt.Fprintf(w, "=== t=%dus ===\n", int64(t)); err != nil {
			return err
		}
		var nodes []string
		for n := range view {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		for _, n := range nodes {
			sn := view[n]
			fmt.Fprintf(w, "node %s  neighbors=%v  prov=%d exec=%d sent=%d msgs\n",
				n, sn.Neighbors, sn.ProvEntries, sn.ExecEntries, sn.SentMsgs)
			var rels []string
			for r := range sn.Tables {
				rels = append(rels, r)
			}
			sort.Strings(rels)
			for _, r := range rels {
				for _, tp := range sn.Tables[r].Tuples() {
					fmt.Fprintf(w, "  %s\n", tp)
				}
			}
		}
	}
	return nil
}
