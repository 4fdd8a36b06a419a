// Package bgp implements a Quagga-like BGP speaker used as the "legacy
// application" of the NetTrails demonstration: an opaque router daemon
// exchanging route advertisements over the simulated network. The
// speaker implements the standard interdomain decision process
// (Gao-Rexford local preference by business relationship, AS-path
// length, deterministic tie-break) and export policies
// (customer routes to everyone; peer/provider routes to customers only).
//
// The speaker is deliberately independent of the NDlog engine — the
// proxy observes its messages from the outside, exactly as NetTrails
// treats Quagga as a black box.
package bgp

import (
	"fmt"
	"sort"

	"repro/internal/simnet"
)

// Relationship classifies a neighbor from this speaker's perspective.
type Relationship int

// Business relationships per Gao-Rexford.
const (
	Customer Relationship = iota // the neighbor pays us
	Peer                         // settlement-free peer
	Provider                     // we pay the neighbor
)

func (r Relationship) String() string {
	switch r {
	case Customer:
		return "customer"
	case Peer:
		return "peer"
	case Provider:
		return "provider"
	}
	return "unknown"
}

// localPref orders candidate routes by the relationship they were
// learned from: customer > peer > provider.
func localPref(r Relationship) int {
	switch r {
	case Customer:
		return 3
	case Peer:
		return 2
	case Provider:
		return 1
	}
	return 0
}

// MsgKind is the simnet message kind for BGP updates.
const MsgKind = "bgp"

// Update is one BGP message: an announcement (with an AS path) or a
// withdrawal (Withdraw true, path empty).
type Update struct {
	From     string // sending AS
	To       string // receiving AS
	Prefix   string
	ASPath   []string
	Withdraw bool
}

// route is a candidate in the adj-RIB-in.
type route struct {
	path []string
	from string
	rel  Relationship
}

// Speaker is one BGP daemon instance.
type Speaker struct {
	AS  string
	net *simnet.Network

	neighbors map[string]Relationship
	// adjIn: prefix -> neighbor -> candidate route.
	adjIn map[string]map[string]route
	// best: prefix -> selected route (loc-RIB); nil path means none.
	best map[string]*route
	// originated prefixes.
	origin map[string]bool
	// down marks neighbors whose BGP session is currently failed: no
	// updates flow either way until SetSessionUp.
	down map[string]bool

	// ExportAll disables the Gao-Rexford export filter: every best
	// route is advertised to every neighbor, provider-learned routes
	// included. This is the classic route-leak misconfiguration (a
	// customer re-exporting its providers' routes), kept here as an
	// injectable fault for adversarial scenarios. Set it before the
	// leaked routes are learned; flipping it mid-run does not
	// re-advertise already-selected routes.
	ExportAll bool

	// Taps for the NetTrails proxy: called on every received update
	// (before processing) and every sent update (after send).
	OnReceive func(u Update)
	OnSend    func(u Update)

	// UpdatesSent / UpdatesReceived count protocol activity.
	UpdatesSent     int
	UpdatesReceived int
}

// NewSpeaker creates a speaker for an AS over the network. The caller
// registers the returned handler for MsgKind traffic at the AS node.
func NewSpeaker(as string, net *simnet.Network) *Speaker {
	return &Speaker{
		AS:        as,
		net:       net,
		neighbors: map[string]Relationship{},
		adjIn:     map[string]map[string]route{},
		best:      map[string]*route{},
		origin:    map[string]bool{},
		down:      map[string]bool{},
	}
}

// AddNeighbor declares a neighbor and its relationship from this
// speaker's perspective.
func (s *Speaker) AddNeighbor(as string, rel Relationship) {
	s.neighbors[as] = rel
}

// Neighbors returns neighbor ASes, sorted.
func (s *Speaker) Neighbors() []string {
	out := make([]string, 0, len(s.neighbors))
	for n := range s.neighbors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// HandleMessage processes one incoming BGP update (simnet handler).
func (s *Speaker) HandleMessage(m simnet.Message) {
	u, ok := m.Payload.(Update)
	if !ok {
		panic(fmt.Sprintf("bgp: bad payload %T", m.Payload))
	}
	s.UpdatesReceived++
	if s.OnReceive != nil {
		s.OnReceive(u)
	}
	s.processUpdate(u)
}

// Originate announces a locally originated prefix.
func (s *Speaker) Originate(prefix string) {
	if s.origin[prefix] {
		return
	}
	s.origin[prefix] = true
	s.recomputeBest(prefix)
}

// WithdrawPrefix withdraws a locally originated prefix.
func (s *Speaker) WithdrawPrefix(prefix string) {
	if !s.origin[prefix] {
		return
	}
	delete(s.origin, prefix)
	s.recomputeBest(prefix)
}

// SetSessionDown fails the BGP session toward a neighbor: everything
// learned from it is treated as implicitly withdrawn (per RFC 4271
// session-loss semantics, flowing through the OnReceive tap so
// observers see the retractions), and no updates are sent to or
// accepted from the neighbor until SetSessionUp. Idempotent.
func (s *Speaker) SetSessionDown(neighbor string) {
	if _, known := s.neighbors[neighbor]; !known || s.down[neighbor] {
		return
	}
	s.down[neighbor] = true
	var prefixes []string
	for prefix, in := range s.adjIn {
		if _, ok := in[neighbor]; ok {
			prefixes = append(prefixes, prefix)
		}
	}
	sort.Strings(prefixes)
	for _, prefix := range prefixes {
		u := Update{From: neighbor, To: s.AS, Prefix: prefix, Withdraw: true}
		if s.OnReceive != nil {
			s.OnReceive(u)
		}
		s.processUpdate(u)
	}
}

// SetSessionUp restores a failed session. It only reopens this side;
// re-advertising the local table (the session re-establishment
// exchange) is a separate Resync call so both ends of a link can be
// reopened before either floods.
func (s *Speaker) SetSessionUp(neighbor string) {
	delete(s.down, neighbor)
}

// Resync advertises the full loc-RIB to a neighbor, as the initial
// exchange after a BGP session (re-)establishes.
func (s *Speaker) Resync(neighbor string) {
	rel, known := s.neighbors[neighbor]
	if !known || s.down[neighbor] {
		return
	}
	var prefixes []string
	for p, r := range s.best {
		if r != nil {
			prefixes = append(prefixes, p)
		}
	}
	sort.Strings(prefixes)
	for _, p := range prefixes {
		r := s.best[p]
		if r.from == neighbor || !s.exportable(r, neighbor, rel) {
			continue
		}
		s.send(Update{From: s.AS, To: neighbor, Prefix: p, ASPath: append([]string(nil), r.path...)})
	}
}

// Prefixes returns the prefixes with a selected route, sorted.
func (s *Speaker) Prefixes() []string {
	var out []string
	for p, r := range s.best {
		if r != nil {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// BestPath returns the selected AS path for a prefix.
func (s *Speaker) BestPath(prefix string) ([]string, bool) {
	r, ok := s.best[prefix]
	if !ok || r == nil {
		return nil, false
	}
	return append([]string(nil), r.path...), true
}

// BestFrom reports which neighbor the selected route was learned from
// ("" for locally originated prefixes).
func (s *Speaker) BestFrom(prefix string) (string, bool) {
	r, ok := s.best[prefix]
	if !ok || r == nil {
		return "", false
	}
	return r.from, true
}

func (s *Speaker) processUpdate(u Update) {
	rel, known := s.neighbors[u.From]
	if !known {
		return // updates from unknown neighbors are ignored
	}
	if s.down[u.From] && !u.Withdraw {
		return // announcements over a failed session are ignored
	}
	in := s.adjIn[u.Prefix]
	if in == nil {
		in = map[string]route{}
		s.adjIn[u.Prefix] = in
	}
	if u.Withdraw {
		if _, had := in[u.From]; !had {
			return
		}
		delete(in, u.From)
	} else {
		// Loop prevention: discard paths containing our own AS.
		for _, hop := range u.ASPath {
			if hop == s.AS {
				return
			}
		}
		in[u.From] = route{path: append([]string(nil), u.ASPath...), from: u.From, rel: rel}
	}
	s.recomputeBest(u.Prefix)
}

// recomputeBest runs the decision process for a prefix and propagates
// the outcome to neighbors when the selection changed.
func (s *Speaker) recomputeBest(prefix string) {
	var newBest *route
	if s.origin[prefix] {
		newBest = &route{path: []string{s.AS}}
	} else {
		var candidates []route
		for _, r := range s.adjIn[prefix] {
			candidates = append(candidates, r)
		}
		sort.Slice(candidates, func(i, j int) bool {
			a, b := candidates[i], candidates[j]
			if localPref(a.rel) != localPref(b.rel) {
				return localPref(a.rel) > localPref(b.rel)
			}
			if len(a.path) != len(b.path) {
				return len(a.path) < len(b.path)
			}
			return a.from < b.from
		})
		if len(candidates) > 0 {
			c := candidates[0]
			// Install with our AS prepended (the loc-RIB view used for
			// forwarding and re-advertisement).
			c2 := route{path: append([]string{s.AS}, c.path...), from: c.from, rel: c.rel}
			newBest = &c2
		}
	}
	old := s.best[prefix]
	if routesEqual(old, newBest) {
		return
	}
	s.best[prefix] = newBest
	s.advertise(prefix, old, newBest)
}

func routesEqual(a, b *route) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.from != b.from || len(a.path) != len(b.path) {
		return false
	}
	for i := range a.path {
		if a.path[i] != b.path[i] {
			return false
		}
	}
	return true
}

// exportable applies Gao-Rexford export policy: advertise a route to a
// neighbor only if it was locally originated, learned from a customer,
// or the neighbor is a customer.
func (s *Speaker) exportable(r *route, to string, toRel Relationship) bool {
	if s.ExportAll {
		return true // route leak: the export filter is disabled
	}
	if r.from == "" {
		return true // our own prefix
	}
	if r.rel == Customer {
		return true
	}
	return toRel == Customer
}

func (s *Speaker) advertise(prefix string, old, best *route) {
	for _, n := range s.Neighbors() {
		rel := s.neighbors[n]
		couldSeeOld := old != nil && old.from != n && s.exportable(old, n, rel)
		canSeeNew := best != nil && best.from != n && s.exportable(best, n, rel)
		switch {
		case canSeeNew:
			s.send(Update{From: s.AS, To: n, Prefix: prefix, ASPath: append([]string(nil), best.path...)})
		case couldSeeOld:
			s.send(Update{From: s.AS, To: n, Prefix: prefix, Withdraw: true})
		}
	}
}

func (s *Speaker) send(u Update) {
	if s.down[u.To] {
		return // session failed: nothing reaches the neighbor
	}
	s.UpdatesSent++
	if s.OnSend != nil {
		s.OnSend(u)
	}
	size := 32 + len(u.Prefix) + 8*len(u.ASPath)
	s.net.Send(simnet.Message{From: u.From, To: u.To, Kind: MsgKind, Payload: u, Size: size})
}
