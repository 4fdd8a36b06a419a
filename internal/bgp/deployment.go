package bgp

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/proxy"
	"repro/internal/rel"
	"repro/internal/simnet"
)

// MonitorProgram is the NDlog program NetTrails runs alongside the
// legacy BGP daemons: it declares the proxy-extracted relations, derives
// a routing-table view, and carries the paper's maybe rule br1 that the
// proxy matches against observed messages.
const MonitorProgram = `
materialize(inputRoute, infinity, infinity, keys(1,2,3,4)).
materialize(outputRoute, infinity, infinity, keys(1,2,3,4)).
materialize(routeEntry, infinity, infinity, keys(1,2)).

re1 routeEntry(@AS,Prefix) :- outputRoute(@AS,R,Prefix,Path).

br1 outputRoute(@AS,R2,Prefix,Route2) ?- inputRoute(@AS,R1,Prefix,Route1), f_isExtend(Route2,Route1,AS) == 1.
`

// ASLink describes one inter-AS adjacency: Rel is B's role from A's
// perspective (Customer means B pays A).
type ASLink struct {
	A, B string
	Rel  Relationship
}

// invert flips the relationship for the other endpoint.
func invert(r Relationship) Relationship {
	switch r {
	case Customer:
		return Provider
	case Provider:
		return Customer
	}
	return Peer
}

// Deployment is a running multi-AS BGP system observed by NetTrails
// proxies: the paper's second use case (Quagga instances on one machine
// with intercepted messages).
type Deployment struct {
	Eng      *engine.Engine
	Speakers map[string]*Speaker
	Proxies  map[string]*proxy.Proxy

	// lastSent: per AS, the last outputRoute tuple per (to, prefix).
	lastSent map[string]map[[2]string]rel.Tuple
	// lastIn: per AS, the last (input tuple, sender output tuple) per
	// (from, prefix).
	lastIn map[string]map[[2]string]inRecord
}

type inRecord struct {
	in        rel.Tuple
	senderOut rel.Tuple
}

// NewDeployment builds ASes, speakers, proxies and the monitoring
// engine over the given AS-level topology.
func NewDeployment(ases []string, links []ASLink, opts engine.Options) (*Deployment, error) {
	eng, err := engine.New(MonitorProgram, ases, opts)
	if err != nil {
		return nil, err
	}
	prog, err := ndlog.Parse(MonitorProgram)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Eng:      eng,
		Speakers: map[string]*Speaker{},
		Proxies:  map[string]*proxy.Proxy{},
		lastSent: map[string]map[[2]string]rel.Tuple{},
		lastIn:   map[string]map[[2]string]inRecord{},
	}
	for _, as := range ases {
		node, _ := eng.Node(as)
		sp := NewSpeaker(as, eng.Net)
		px, err := proxy.New(as, prog, node.Prov)
		if err != nil {
			return nil, err
		}
		d.Speakers[as] = sp
		d.Proxies[as] = px
		d.lastSent[as] = map[[2]string]rel.Tuple{}
		d.lastIn[as] = map[[2]string]inRecord{}
		d.wireTaps(as, sp, px, node)
	}
	if err := eng.RegisterService(MsgKind, func(n *engine.Node, m simnet.Message) {
		d.Speakers[n.Addr].HandleMessage(m)
	}); err != nil {
		return nil, err
	}
	for _, l := range links {
		sa, ok := d.Speakers[l.A]
		if !ok {
			return nil, fmt.Errorf("bgp: link references unknown AS %s", l.A)
		}
		sb, ok := d.Speakers[l.B]
		if !ok {
			return nil, fmt.Errorf("bgp: link references unknown AS %s", l.B)
		}
		sa.AddNeighbor(l.B, l.Rel)
		sb.AddNeighbor(l.A, invert(l.Rel))
		if _, err := eng.Net.Connect(l.A, l.B, simnet.LinkLatency); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// pathList builds an AS path value; a path that fits the stack buffer
// is allocated once, by List's copy.
func pathList(path []string) rel.Value {
	var buf [16]rel.Value
	vs := buf[:0]
	for _, p := range path {
		vs = append(vs, rel.Addr(p))
	}
	return rel.List(vs...)
}

func inputTuple(as string, u Update) rel.Tuple {
	return rel.NewTuple("inputRoute", rel.Addr(as), rel.Addr(u.From), rel.Str(u.Prefix), pathList(u.ASPath))
}

func outputTuple(as string, u Update) rel.Tuple {
	return rel.NewTuple("outputRoute", rel.Addr(as), rel.Addr(u.To), rel.Str(u.Prefix), pathList(u.ASPath))
}

// wireTaps connects the speaker's message taps to the proxy and the
// NDlog runtime tables.
func (d *Deployment) wireTaps(as string, sp *Speaker, px *proxy.Proxy, node *engine.Node) {
	sp.OnSend = func(u Update) {
		// The tap writes the runtime tables and provenance store
		// directly (no InsertFact, no dispatched message), so the
		// epoch-snapshot activity gate must be told by hand.
		node.Touch()
		key := [2]string{u.To, u.Prefix}
		if old, ok := d.lastSent[as][key]; ok {
			// Implicit replacement (or explicit withdraw) of the
			// previous advertisement to this neighbor.
			px.RetractOutput(old)
			if err := node.RT.DeleteBase(old); err != nil {
				panic(fmt.Sprintf("bgp: %s: %v", as, err))
			}
			delete(d.lastSent[as], key)
		}
		if u.Withdraw {
			return
		}
		out := outputTuple(as, u)
		d.lastSent[as][key] = out
		px.ObserveOutput(out)
		if err := node.RT.InsertBase(out); err != nil {
			panic(fmt.Sprintf("bgp: %s: %v", as, err))
		}
	}
	sp.OnReceive = func(u Update) {
		key := [2]string{u.From, u.Prefix}
		senderNode, _ := d.Eng.Node(u.From)
		// This tap writes two nodes out-of-band: the receiver's tables
		// get the input route, and the *sender's* provenance store gets
		// the transmission derivation (ObserveInput/RetractTransmitted).
		node.Touch()
		senderNode.Touch()
		if old, ok := d.lastIn[as][key]; ok {
			px.RetractTransmitted(old.in, u.From, old.senderOut, senderNode.Prov)
			if err := node.RT.DeleteBase(old.in); err != nil {
				panic(fmt.Sprintf("bgp: %s: %v", as, err))
			}
			delete(d.lastIn[as], key)
		}
		if u.Withdraw {
			return
		}
		in := inputTuple(as, u)
		// The sender observed the matching output when it sent this
		// update; link the transmission in the provenance graph.
		senderOut := rel.NewTuple("outputRoute", rel.Addr(u.From), rel.Addr(as), rel.Str(u.Prefix), pathList(u.ASPath))
		px.ObserveInput(in, u.From, &senderOut, senderNode.Prov)
		d.lastIn[as][key] = inRecord{in: in, senderOut: senderOut}
		if err := node.RT.InsertBase(in); err != nil {
			panic(fmt.Sprintf("bgp: %s: %v", as, err))
		}
	}
}

// Originate announces a prefix from an AS and runs to quiescence.
func (d *Deployment) Originate(as, prefix string) error {
	sp, ok := d.Speakers[as]
	if !ok {
		return fmt.Errorf("bgp: unknown AS %s", as)
	}
	sp.Originate(prefix)
	d.Eng.RunQuiescent()
	return nil
}

// Withdraw retracts a prefix originated by an AS and runs to
// quiescence.
func (d *Deployment) Withdraw(as, prefix string) error {
	sp, ok := d.Speakers[as]
	if !ok {
		return fmt.Errorf("bgp: unknown AS %s", as)
	}
	sp.WithdrawPrefix(prefix)
	d.Eng.RunQuiescent()
	return nil
}

// speakerPair resolves both endpoints of a session.
func (d *Deployment) speakerPair(a, b string) (*Speaker, *Speaker, error) {
	sa, ok := d.Speakers[a]
	if !ok {
		return nil, nil, fmt.Errorf("bgp: unknown AS %s", a)
	}
	sb, ok := d.Speakers[b]
	if !ok {
		return nil, nil, fmt.Errorf("bgp: unknown AS %s", b)
	}
	return sa, sb, nil
}

// FailSession fails the BGP session between two adjacent ASes: both
// ends implicitly withdraw everything learned over it, withdrawals
// cascade, and the system runs to quiescence on the surviving
// sessions. This is the partition primitive of the adversarial
// scenarios.
func (d *Deployment) FailSession(a, b string) error {
	sa, sb, err := d.speakerPair(a, b)
	if err != nil {
		return err
	}
	// Mark both ends down before either withdraws, so the cascades
	// cannot leak updates across the dead session.
	sa.SetSessionDown(b)
	sb.SetSessionDown(a)
	d.Eng.RunQuiescent()
	return nil
}

// RestoreSession re-establishes a failed session: both ends reopen,
// exchange full tables, and the system reconverges.
func (d *Deployment) RestoreSession(a, b string) error {
	sa, sb, err := d.speakerPair(a, b)
	if err != nil {
		return err
	}
	sa.SetSessionUp(b)
	sb.SetSessionUp(a)
	sa.Resync(b)
	sb.Resync(a)
	d.Eng.RunQuiescent()
	return nil
}

// SetExportAll toggles an AS's route-leak fault (see
// Speaker.ExportAll). Set it before the leaked routes are learned.
func (d *Deployment) SetExportAll(as string, on bool) error {
	sp, ok := d.Speakers[as]
	if !ok {
		return fmt.Errorf("bgp: unknown AS %s", as)
	}
	sp.ExportAll = on
	return nil
}

// RouteEntries returns the derived routeEntry tuples at an AS.
func (d *Deployment) RouteEntries(as string) ([]rel.Tuple, error) {
	n, ok := d.Eng.Node(as)
	if !ok {
		return nil, fmt.Errorf("bgp: unknown AS %s", as)
	}
	return n.Tuples("routeEntry")
}
