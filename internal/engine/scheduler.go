// Epoch scheduler: the drain RunQuiescent uses when something needs to
// see the execution one virtual instant at a time — an epoch observer
// (the snapshot publisher). The simulated network synchronizes protocol
// traffic into waves — after a topology change, every node's deltas
// land at the same virtual instants — so the scheduler drains the event
// queue epoch by epoch (simnet.NextEpoch) on the caller's goroutine and
// gives each epoch three properties the plain Net.Run loop does not
// have:
//
//   - Consistent cuts: between two epochs every event of the instant
//     is delivered, so the observer reads a global state that some
//     serial execution actually passes through. At each cut the change
//     scan reports which nodes changed (Changes).
//   - A canonical delivery order: canonicalize sorts an instant's
//     events by endpoints and kind rather than by raw schedule
//     sequence. compat-v1's digest and TestFiringOrderPinned pin the
//     derivations that order produces.
//   - Per-link coalescing: the sends a run of delta deliveries emits
//     are captured, typed, instead of enqueued, and consecutive ones bound for
//     the same src→dst link leave as one DeltaBatch message, without
//     reordering any destination's delivery sequence.
//
// Timers and service messages (provenance queries, snapshots, BGP
// control traffic) are not captured: they execute inline between the
// delta runs, in canonical order, and send straight to the network.
package engine

import (
	"slices"
	"sort"

	"repro/internal/simnet"
)

// sentDelta is one outbound tuple delta, typed until it ships: only
// then is its DeltaMsg boxed into a message payload, once per singleton
// and once per DeltaBatch.
type sentDelta struct {
	from, to string
	dm       DeltaMsg
	size     int
}

// message carries payload over sd's link: sd's own DeltaMsg, or the
// DeltaBatch sd heads.
func (sd *sentDelta) message(payload any, size int) simnet.Message {
	return simnet.Message{From: sd.from, To: sd.to, Kind: KindDelta, Reliable: true, Payload: payload, Size: size}
}

// netSend routes an outbound delta: straight onto the network, or,
// while the epoch scheduler is delivering a delta to this node, into
// the scheduler's capture buffer (enqueued, coalesced, when the run
// ends).
func (n *Node) netSend(sd sentDelta) {
	if n.cap != nil {
		*n.cap = append(*n.cap, sd)
		return
	}
	n.eng.Net.Send(sd.message(sd.dm, sd.size))
}

// runEpochs drains the network epoch by epoch, the counterpart of
// Net.Run(0) for an engine with an epoch observer. Each round scans for
// changes, peeks at the next instant, observes the cut the previous
// instant left, and advances to and executes the next one. Quiescence —
// no pending instant — ends the drain.
func (e *Engine) runEpochs() {
	e.draining = true
	defer func() { e.draining = false }()
	for r := 0; ; r++ {
		e.scan()
		_, ok := e.Net.PeekTime()
		// The previous instant — or, in round 0 of an empty drain, the
		// caller's mutations right before RunQuiescent (a fact whose
		// derivations stay local) — is a consistent cut here. Round 0
		// with pending events observes nothing: the first cut follows
		// the first instant.
		if r > 0 || !ok {
			if e.epochObserver != nil {
				e.epochObserver()
			}
			e.changed, e.dirty = false, e.dirty[:0] // unconsumed, it goes with the cut
		}
		if !ok {
			return
		}
		ep, _ := e.Net.NextEpoch()
		e.executeEpoch(ep.Events)
	}
}

// versions reads the node's state and provenance versions. Both are
// minted only for visible state, so comparing them decides "changed"
// identically in every deployment shape.
func (n *Node) versions() (state, prov uint64) {
	if n.Prov != nil {
		prov = n.Prov.Version()
	}
	return n.RT.Store.StateVersion(), prov
}

// scan is the change scan: every touched node whose versions moved
// since the last scan joins dirty, and changed is set. Repeated scans
// before a report accumulate.
func (e *Engine) scan() {
	for _, n := range e.touched {
		n.touched = false
		if sv, pv := n.versions(); sv != n.seenState || pv != n.seenProv {
			n.seenState, n.seenProv = sv, pv
			e.changed = true
			e.dirty = append(e.dirty, n.pos)
		}
	}
	e.touched = e.touched[:0]
}

// Changes reports what changed since the last report: whether any
// node's visible state changed, and the ascending Nodes() positions of
// the changed nodes. From the epoch observer it reports
// the cut being observed; outside a drain it scans now. Either way the
// report is consumed, and dirty is valid until the engine next runs.
func (e *Engine) Changes() (changed bool, dirty []int) {
	if !e.draining {
		e.scan()
	}
	slices.Sort(e.dirty)
	changed, dirty = e.changed, slices.Compact(e.dirty)
	e.changed, e.dirty = false, e.dirty[:0]
	return changed, dirty
}

// executeEpoch canonicalizes and executes one virtual instant's events:
// maximal runs of delta deliveries go through deliverDeltas, everything
// else (timers, service messages) executes inline in canonical order,
// sending straight to the network exactly as in the serial loop.
func (e *Engine) executeEpoch(events []simnet.EpochEvent) {
	canonicalize(events)
	for i := 0; i < len(events); {
		ev := events[i]
		if isDelta(ev) {
			j := i + 1
			for j < len(events) && isDelta(events[j]) {
				j++
			}
			e.deliverDeltas(events[i:j])
			i = j
			continue
		}
		if ev.Msg != nil {
			e.Net.Deliver(ev.Msg)
		} else {
			ev.Fn()
		}
		i++
	}
}

// canonicalize sorts one epoch's events into the canonical order:
//
//  1. timers/callbacks, by schedule order (they fire before the
//     instant's deliveries);
//  2. message deliveries, destination-major by (To, From, Kind, Seq),
//     so one node's deliveries — and therefore its captured sends —
//     form a contiguous block, which is what lets per-link coalescing
//     merge them.
//
// The order decides which derivation a node sees first, so compat-v1's
// digest and TestFiringOrderPinned pin it: changing it is a format
// break, not a refactor.
func canonicalize(events []simnet.EpochEvent) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if (a.Msg == nil) != (b.Msg == nil) {
			return a.Msg == nil
		}
		if a.Msg == nil {
			return a.Seq < b.Seq
		}
		if a.Msg.To != b.Msg.To {
			return a.Msg.To < b.Msg.To
		}
		if a.Msg.From != b.Msg.From {
			return a.Msg.From < b.Msg.From
		}
		if a.Msg.Kind != b.Msg.Kind {
			return a.Msg.Kind < b.Msg.Kind
		}
		return a.Seq < b.Seq
	})
}

// isDelta reports whether an epoch event is a tuple-delta delivery, the
// only kind whose sends are captured and coalesced: its dispatch path
// touches nothing but the destination node's runtime and provenance
// partition, and sends only from that node.
func isDelta(ev simnet.EpochEvent) bool {
	return ev.Msg != nil && ev.Msg.Kind == KindDelta
}

// deliverDeltas executes one run of delta deliveries in canonical
// order, capturing what the destinations send. The deliveries run one
// after another, so the capture order is already the order their sends
// enter the network in; canonicalize made each destination's deliveries
// contiguous, which is what lets one link's sends sit side by side and
// coalesce.
func (e *Engine) deliverDeltas(run []simnet.EpochEvent) {
	e.captured = e.captured[:0]
	for _, ev := range run {
		e.deliverCaptured(e.nodes[ev.Msg.To], ev.Msg)
	}
	e.enqueueCoalesced(e.captured)
}

// deliverCaptured delivers one delta with the destination's sends
// redirected into e.captured. The redirect is undone even when
// evaluation panics, so a caller that recovers finds the node sending
// to the network again.
func (e *Engine) deliverCaptured(n *Node, m *simnet.Message) {
	n.cap = &e.captured
	defer func() { n.cap = nil }()
	e.Net.Deliver(m)
}

// enqueueCoalesced sends the captured deltas, coalescing maximal
// consecutive runs bound for the same src→dst link into one DeltaBatch
// message. Because only globally-consecutive sends merge, every
// destination still observes its deltas in the exact serial order;
// the batch merely rides as one wire message (its size is the sum of
// its members, so byte accounting is preserved — message counts drop,
// which is the point).
func (e *Engine) enqueueCoalesced(sends []sentDelta) {
	for i := 0; i < len(sends); {
		j := i + 1
		for j < len(sends) && sends[j].from == sends[i].from && sends[j].to == sends[i].to {
			j++
		}
		if j-i == 1 {
			e.Net.Send(sends[i].message(sends[i].dm, sends[i].size))
			i = j
			continue
		}
		batch := DeltaBatch{Msgs: make([]DeltaMsg, 0, j-i)}
		size := 0
		for k := range sends[i:j] {
			batch.Msgs = append(batch.Msgs, sends[i+k].dm)
			size += sends[i+k].size
		}
		e.Net.Send(sends[i].message(batch, size))
		i = j
	}
}
