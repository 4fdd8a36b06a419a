// Package simnet is a deterministic discrete-event network simulator,
// standing in for ns-3 in the NetTrails architecture. It provides nodes
// with message handlers, point-to-point links with latency and loss,
// link up/down dynamics, position-based radio connectivity for mobile
// scenarios, timers, and per-link/per-kind traffic accounting used by
// the provenance query-optimization experiments.
//
// Everything is deterministic given the seed: events are ordered by
// (time, sequence number) and the only randomness is the seeded PRNG
// used for message loss.
package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Time is simulated time in microseconds.
type Time int64

// Millisecond and friends express common durations in simulated time.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * Millisecond
)

// LinkLatency is the latency of every link the system connects, and of
// traffic between nodes without a direct link, which models IP
// connectivity between non-adjacent nodes (provenance queries travel
// over IP, not over protocol links).
const LinkLatency = Millisecond

// Message is one network message between nodes.
type Message struct {
	From    string
	To      string
	Kind    string // traffic category, e.g. "delta", "query", "snapshot"
	Payload interface{}
	Size    int // bytes, for traffic accounting
	// Reliable marks control-plane traffic carried over a reliable
	// transport (RapidNet ships tuple deltas over TCP): it is never
	// dropped by link loss or link-down state and is routed around a
	// down link at LinkLatency.
	Reliable bool
}

// Handler consumes messages delivered to a node.
type Handler func(m Message)

// LinkStats accumulates traffic over one link (both directions).
type LinkStats struct {
	Messages int
	Bytes    int
	Drops    int
}

// Link is an undirected point-to-point connection. Up is changed only
// through Connect and SetLinkUp, which keep the adjacency lists in step.
type Link struct {
	A, B    string
	Latency Time
	Loss    float64 // probability each message is dropped
	Up      bool
	Stats   LinkStats
}

type linkKey struct{ a, b string }

func keyFor(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

type event struct {
	at  Time
	seq uint64
	// fn is set for timers and callbacks and nil for a message
	// delivery, which carries msg. Keeping deliveries first-class
	// (instead of closing over them) lets NextEpoch hand them to an
	// external scheduler that reorders and batches one virtual
	// instant's events.
	fn  func()
	msg Message
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap on (at, seq) holding events by value,
// so scheduling one allocates nothing once the slice has grown.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 && e.before(&q[(i-1)/2]) {
		q[i] = q[(i-1)/2]
		i = (i - 1) / 2
	}
	q[i] = e
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top, last := q[0], q[n]
	q[n] = event{} // unpin the payload
	q = q[:n]
	*h = q
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	return top
}

// Position is a 2-D coordinate for radio-range connectivity.
type Position struct{ X, Y float64 }

// Dist returns the Euclidean distance between positions.
func (p Position) Dist(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

type node struct {
	name    string
	handler Handler
	pos     Position
	sent    LinkStats
	recv    LinkStats
}

// KindStats accumulates traffic by message kind.
type KindStats struct {
	Messages int
	Bytes    int
}

// Network is the simulator instance.
type Network struct {
	now    Time
	seq    uint64
	events eventHeap
	nodes  map[string]*node
	links  map[linkKey]*Link
	// adj lists each node's neighbors over up links, sorted; Connect,
	// Disconnect and SetLinkUp maintain it so Neighbors scans no links.
	adj map[string][]string
	rng *rand.Rand

	kinds map[string]*KindStats

	totalMsgs  int
	totalBytes int
	totalDrops int

	// drained and epoch are NextEpoch's buffers, reused epoch to epoch.
	drained []event
	epoch   []EpochEvent
}

// New creates an empty network with the given PRNG seed.
func New(seed int64) *Network {
	return &Network{
		nodes: map[string]*node{},
		links: map[linkKey]*Link{},
		adj:   map[string][]string{},
		rng:   rand.New(rand.NewSource(seed)),
		kinds: map[string]*KindStats{},
	}
}

// Now returns the current simulated time.
func (n *Network) Now() Time { return n.now }

// AddNode registers a node; replacing an existing handler is an error.
func (n *Network) AddNode(name string, h Handler) error {
	if name == "" {
		return fmt.Errorf("simnet: empty node name")
	}
	if _, ok := n.nodes[name]; ok {
		return fmt.Errorf("simnet: node %s already exists", name)
	}
	n.nodes[name] = &node{name: name, handler: h}
	return nil
}

// Nodes returns all node names, sorted.
func (n *Network) Nodes() []string {
	out := make([]string, 0, len(n.nodes))
	for name := range n.nodes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HasNode reports whether the node exists.
func (n *Network) HasNode(name string) bool {
	_, ok := n.nodes[name]
	return ok
}

// Connect creates (or re-activates) an undirected link.
func (n *Network) Connect(a, b string, latency Time) (*Link, error) {
	if a == b {
		return nil, fmt.Errorf("simnet: self-link %s", a)
	}
	if !n.HasNode(a) || !n.HasNode(b) {
		return nil, fmt.Errorf("simnet: connect %s-%s: unknown node", a, b)
	}
	k := keyFor(a, b)
	n.setAdjacent(a, b, true)
	if l, ok := n.links[k]; ok {
		l.Latency = latency
		l.Up = true
		return l, nil
	}
	l := &Link{A: k.a, B: k.b, Latency: latency, Up: true}
	n.links[k] = l
	return l, nil
}

// SetLinkUp marks a link up or down; unknown links are ignored.
func (n *Network) SetLinkUp(a, b string, up bool) {
	if l, ok := n.links[keyFor(a, b)]; ok {
		l.Up = up
		n.setAdjacent(a, b, up)
	}
}

// setAdjacent records in both nodes' sorted adjacency lists that the
// link between them is up, or no longer is; a no-op when already so.
func (n *Network) setAdjacent(a, b string, up bool) {
	for _, end := range [2][2]string{{a, b}, {b, a}} {
		list := n.adj[end[0]]
		i, found := slices.BinarySearch(list, end[1])
		switch {
		case up && !found:
			n.adj[end[0]] = slices.Insert(list, i, end[1])
		case !up && found:
			n.adj[end[0]] = slices.Delete(list, i, i+1)
		}
	}
}

// LinkBetween returns the link between two nodes, if any.
func (n *Network) LinkBetween(a, b string) (*Link, bool) {
	l, ok := n.links[keyFor(a, b)]
	return l, ok
}

// Links returns all links sorted by endpoints.
func (n *Network) Links() []*Link {
	out := make([]*Link, 0, len(n.links))
	for _, l := range n.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Neighbors returns the nodes connected to name by an up link, sorted
// (nil when there are none). The slice is the caller's own.
func (n *Network) Neighbors(name string) []string {
	if len(n.adj[name]) == 0 {
		return nil
	}
	return slices.Clone(n.adj[name])
}

// SetPosition places a node for radio-range connectivity.
func (n *Network) SetPosition(name string, p Position) error {
	nd, ok := n.nodes[name]
	if !ok {
		return fmt.Errorf("simnet: unknown node %s", name)
	}
	nd.pos = p
	return nil
}

// PositionOf returns a node's position.
func (n *Network) PositionOf(name string) (Position, bool) {
	nd, ok := n.nodes[name]
	if !ok {
		return Position{}, false
	}
	return nd.pos, true
}

// InRange reports whether two nodes are within radio range r.
func (n *Network) InRange(a, b string, r float64) bool {
	na, ok1 := n.nodes[a]
	nb, ok2 := n.nodes[b]
	return ok1 && ok2 && na.pos.Dist(nb.pos) <= r
}

// Send schedules delivery of a message. Direct links use their latency
// and loss; node pairs without a link use LinkLatency. Local sends
// (from == to) are delivered after a zero-latency scheduling step.
func (n *Network) Send(m Message) {
	if _, ok := n.nodes[m.To]; !ok {
		n.totalDrops++
		return
	}
	var latency Time
	var link *Link
	if m.From != m.To {
		if l, ok := n.links[keyFor(m.From, m.To)]; ok {
			link = l
			switch {
			case !l.Up:
				if !m.Reliable {
					l.Stats.Drops++
					n.totalDrops++
					return
				}
				link = nil // rerouted around the down link
				latency = LinkLatency
			case !m.Reliable && l.Loss > 0 && n.rng.Float64() < l.Loss:
				l.Stats.Drops++
				n.totalDrops++
				return
			default:
				latency = l.Latency
			}
		} else {
			latency = LinkLatency
		}
	}
	n.account(m, link)
	n.seq++
	n.events.push(event{at: n.now + latency, seq: n.seq, msg: m})
}

// PeekTime returns the virtual timestamp of the earliest pending event;
// ok is false when the queue is empty.
func (n *Network) PeekTime() (Time, bool) {
	if len(n.events) == 0 {
		return 0, false
	}
	return n.events[0].at, true
}

// Deliver invokes the destination handler of a message delivery event,
// updating the destination's receive counters. It is used by Step and
// by external epoch schedulers replaying events drained with
// NextEpoch. Deliver only touches state owned by the destination node.
func (n *Network) Deliver(m *Message) {
	nd, ok := n.nodes[m.To]
	if !ok || nd.handler == nil {
		return
	}
	nd.recv.Messages++
	nd.recv.Bytes += m.Size
	nd.handler(*m)
}

func (n *Network) account(m Message, l *Link) {
	n.totalMsgs++
	n.totalBytes += m.Size
	if nd, ok := n.nodes[m.From]; ok {
		nd.sent.Messages++
		nd.sent.Bytes += m.Size
	}
	if l != nil {
		l.Stats.Messages++
		l.Stats.Bytes += m.Size
	}
	ks, ok := n.kinds[m.Kind]
	if !ok {
		ks = &KindStats{}
		n.kinds[m.Kind] = ks
	}
	ks.Messages++
	ks.Bytes += m.Size
}

// After schedules fn to run after delay.
func (n *Network) After(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	n.schedule(delay, fn)
}

func (n *Network) schedule(delay Time, fn func()) {
	n.seq++
	n.events.push(event{at: n.now + delay, seq: n.seq, fn: fn})
}

// Step executes the next event; it reports false when the queue is
// empty.
func (n *Network) Step() bool {
	if len(n.events) == 0 {
		return false
	}
	e := n.events.pop()
	n.now = e.at
	if e.fn == nil {
		n.Deliver(&e.msg)
	} else {
		e.fn()
	}
	return true
}

// EpochEvent is one scheduled event drained by NextEpoch: either a
// message delivery (Msg != nil) or a timer/callback (Fn != nil).
type EpochEvent struct {
	// Seq is the event's schedule sequence number; it totally orders
	// the events of an epoch.
	Seq uint64
	Msg *Message
	Fn  func()
}

// Epoch is the batch of all events sharing the earliest pending
// virtual timestamp, in schedule (Seq) order. Events and the messages
// they point to live in buffers the Network reuses: they stay valid
// until the next NextEpoch call, and a caller that keeps one longer
// must copy it.
type Epoch struct {
	At     Time
	Events []EpochEvent
}

// NextEpoch pops every pending event that shares the earliest
// timestamp, advances the clock to it, and returns the batch. ok is
// false when the queue is empty.
//
// Executing the drained events is the caller's responsibility: run Fn
// events inline and hand Msg events to Deliver. Executing them in Seq
// order reproduces Step/Run exactly; internal/engine executes them in
// its own canonical order (destination-major, Seq order within each
// message stream). Events the caller drops are lost.
func (n *Network) NextEpoch() (Epoch, bool) {
	clear(n.drained) // unpin the previous epoch's payloads and timers
	clear(n.epoch)
	n.drained = n.drained[:0]
	if len(n.events) == 0 {
		return Epoch{}, false
	}
	at := n.events[0].at
	for len(n.events) > 0 && n.events[0].at == at {
		n.drained = append(n.drained, n.events.pop())
	}
	// Pointers into drained are taken once it has stopped growing.
	n.epoch = n.epoch[:0]
	for i := range n.drained {
		e := &n.drained[i]
		ev := EpochEvent{Seq: e.seq, Fn: e.fn}
		if e.fn == nil {
			ev.Msg = &e.msg
		}
		n.epoch = append(n.epoch, ev)
	}
	n.now = at
	return Epoch{At: at, Events: n.epoch}, true
}

// Run drains the event queue up to maxEvents (0 = unlimited) and returns
// the number of events executed.
func (n *Network) Run(maxEvents int) int {
	count := 0
	for n.Step() {
		count++
		if maxEvents > 0 && count >= maxEvents {
			break
		}
	}
	return count
}

// RunUntil executes events with time <= deadline and returns the count.
func (n *Network) RunUntil(deadline Time) int {
	count := 0
	for len(n.events) > 0 && n.events[0].at <= deadline {
		n.Step()
		count++
	}
	if n.now < deadline {
		n.now = deadline
	}
	return count
}

// Pending reports the number of queued events.
func (n *Network) Pending() int { return len(n.events) }

// Totals returns total messages, bytes, and drops since creation.
func (n *Network) Totals() (msgs, bytes, drops int) {
	return n.totalMsgs, n.totalBytes, n.totalDrops
}

// KindTotals returns traffic per message kind (copy).
func (n *Network) KindTotals() map[string]KindStats {
	out := make(map[string]KindStats, len(n.kinds))
	for k, v := range n.kinds {
		out[k] = *v
	}
	return out
}

// NodeTraffic returns the sent/received stats of a node.
func (n *Network) NodeTraffic(name string) (sent, recv LinkStats, ok bool) {
	nd, found := n.nodes[name]
	if !found {
		return LinkStats{}, LinkStats{}, false
	}
	return nd.sent, nd.recv, true
}

// ResetTraffic zeroes all traffic counters (links, nodes, kinds,
// totals), used to isolate per-experiment measurements.
func (n *Network) ResetTraffic() {
	n.totalMsgs, n.totalBytes, n.totalDrops = 0, 0, 0
	n.kinds = map[string]*KindStats{}
	for _, l := range n.links {
		l.Stats = LinkStats{}
	}
	for _, nd := range n.nodes {
		nd.sent = LinkStats{}
		nd.recv = LinkStats{}
	}
}
