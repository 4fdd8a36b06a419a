// Distributed execution: N engine processes, each owning a slice of the
// simulated nodes, advance through the same virtual-time schedule in
// lockstep over a simnet.Transport.
//
// The partitioning model is replicate-control, partition-data. Every
// process builds the full engine (all nodes, the full topology) and
// replays the identical input script, so timers, topology changes, and
// service/control traffic (BGP updates, provenance queries) execute
// identically everywhere — they are cheap and keep every process's
// event schedule aligned without any coordination. Only tuple-delta
// traffic (KindDelta) is partitioned: a delta delivery executes solely
// in the process owning the destination node, and deltas bound for a
// remotely-owned node are intercepted at the send hook and shipped as
// epoch-stamped frames instead of entering the local queue.
//
// The cross-process epoch protocol is two Transport exchanges per
// round, each a barrier:
//
//	frames:  ship the deltas emitted by the last executed instant;
//	         owners inject them at their original virtual timestamps.
//	propose: every process offers its earliest pending timestamp and a
//	         "state changed since last cut" bit. The cut T is the
//	         minimum offer; the global change bit is the OR.
//
// Both exchanges run inside the one epoch loop (runEpochs, scheduler.go).
// After the propose barrier every process observes the same consistent
// cut — the previous instant is fully executed everywhere and all its
// deltas have been claimed — so the epoch observer fires there with the
// global change bit, minting the same dense version sequence in every
// process. Then each process advances its clock to T and executes the
// instant if it owns events at T. Quiescence (no offers) ends the
// drain. Combined with the canonical intra-epoch event order, this
// reproduces the single-process schedule exactly: same states, same
// provenance, same per-link coalescing, byte-identical snapshots.
package engine

import (
	"fmt"

	"repro/internal/simnet"
)

// ClusterStats counts distributed-drain work for benchmarking.
type ClusterStats struct {
	Rounds    uint64 // protocol rounds (two transport exchanges each)
	Epochs    uint64 // global virtual instants agreed and advanced to
	FramesOut uint64 // delta frames shipped to peers
	FramesIn  uint64 // delta frames claimed from peers
	BytesOut  uint64 // encoded frame payload bytes broadcast
	BytesIn   uint64 // encoded frame payload bytes received
}

// ClusterError is the loud-failure wrapper for distributed-protocol
// faults: transport errors, undecodable frames, or a node set that
// changed after ownership was frozen. The drain panics with it rather
// than risking silent divergence between processes.
type ClusterError struct {
	Op  string
	Err error
}

func (e *ClusterError) Error() string { return fmt.Sprintf("engine cluster: %s: %v", e.Op, e.Err) }
func (e *ClusterError) Unwrap() error { return e.Err }

// Exchange phases within one protocol round.
const (
	phaseFrames  uint8 = 1
	phasePropose uint8 = 2
)

type cluster struct {
	tr    simnet.Transport
	self  int
	size  int
	owner map[string]int // node addr -> owning member rank
	step  uint64
	// outbox accumulates remotely-owned deltas intercepted by the send
	// hook, in emission order, until the next frames exchange.
	outbox    []wireFrame
	nodeCount int
	stats     ClusterStats
}

func (c *cluster) nextStep() uint64 { c.step++; return c.step }

// OwnerOf is the one node-partitioning rule: the node at 0-based
// position pos of the network's sorted node list belongs to part
// pos mod n — dealt round-robin. Cluster members, serving shards and
// gateways all derive ownership from it; n <= 1 means a single owner.
func OwnerOf(pos, n int) int {
	if n <= 1 {
		return 0
	}
	return pos % n
}

// EnableCluster switches the engine into distributed mode over tr.
// Node ownership is frozen at this call: OwnerOf deals the sorted node
// list across the tr.Size() members (the rule serving shards use too,
// so a member's engine slice and its colocated shard publisher cover
// the same nodes). Call it after the engine is fully
// built and any pre-replay facts are loaded, and before attaching a
// snapshot publisher. Once enabled, facts inserted at nodes owned by a
// peer become local no-ops (the peer applies them), and tuple deltas
// addressed to a peer's nodes are shipped through tr during
// RunQuiescent instead of being delivered locally.
func (e *Engine) EnableCluster(tr simnet.Transport) error {
	if e.cluster != nil {
		return fmt.Errorf("engine: cluster already enabled")
	}
	size, self := tr.Size(), tr.Self()
	if size < 1 || self < 0 || self >= size {
		return fmt.Errorf("engine: bad transport shape self=%d size=%d", self, size)
	}
	c := &cluster{
		tr:        tr,
		self:      self,
		size:      size,
		owner:     make(map[string]int, len(e.nodes)),
		nodeCount: len(e.nodes),
	}
	for pos, addr := range e.Nodes() {
		c.owner[addr] = OwnerOf(pos, size)
	}
	e.cluster = c
	e.Net.SendHook = func(m simnet.Message, deliverAt simnet.Time) bool {
		if m.Kind != KindDelta || e.Owns(m.To) {
			return false
		}
		c.outbox = append(c.outbox, wireFrame{At: deliverAt, Msg: m})
		return true
	}
	return nil
}

// Clustered reports whether the engine runs in distributed mode.
func (e *Engine) Clustered() bool { return e.cluster != nil }

// Owns reports whether this process owns the named node. Every node is
// owned when the engine is not clustered.
func (e *Engine) Owns(addr string) bool {
	if e.cluster == nil {
		return true
	}
	r, ok := e.cluster.owner[addr]
	return ok && r == e.cluster.self
}

// ClusterStats returns a copy of the distributed-drain counters.
func (e *Engine) ClusterStats() ClusterStats {
	if e.cluster == nil {
		return ClusterStats{}
	}
	return e.cluster.stats
}

// exchangeFrames is a round's first exchange: it ships the deltas the
// last executed instant emitted for peer-owned nodes, and injects the
// peers' deltas for locally-owned nodes at their original virtual
// timestamps. Transport failures and undecodable peer data panic with
// *ClusterError — a distributed drain that cannot complete must fail
// loudly, never return a half-advanced engine.
func (c *cluster) exchangeFrames(e *Engine) {
	c.stats.Rounds++
	out := c.outbox
	c.outbox = nil
	payload := encodeFrames(out)
	c.stats.FramesOut += uint64(len(out))
	c.stats.BytesOut += uint64(len(payload))
	reps, err := c.tr.Exchange(c.nextStep(), phaseFrames, payload)
	if err != nil {
		panic(&ClusterError{Op: "frames exchange", Err: err})
	}
	// Claim in member-rank order, so injected schedule sequence numbers
	// are deterministic per process.
	for rank := 0; rank < c.size; rank++ {
		if rank == c.self || len(reps[rank]) == 0 {
			continue
		}
		c.stats.BytesIn += uint64(len(reps[rank]))
		frames, err := decodeFrames(reps[rank])
		if err != nil {
			panic(&ClusterError{Op: fmt.Sprintf("decode frames from member %d", rank), Err: err})
		}
		for _, f := range frames {
			if !e.Owns(f.Msg.To) {
				continue
			}
			c.stats.FramesIn++
			e.Net.InjectAt(f.At, f.Msg)
		}
	}
}

// propose is a round's second exchange: it offers this process's
// earliest pending timestamp and change bit, and returns the agreed
// cut (the minimum offer, and whether any member made one) and the OR
// of every member's bit. Failures panic like exchangeFrames'.
func (c *cluster) propose(next simnet.Time, hasNext, changed bool) (simnet.Time, bool, bool) {
	preps, err := c.tr.Exchange(c.nextStep(), phasePropose, encodePropose(next, hasNext, changed))
	if err != nil {
		panic(&ClusterError{Op: "propose exchange", Err: err})
	}
	at, ok := next, hasNext
	for rank := 0; rank < c.size; rank++ {
		if rank == c.self {
			continue
		}
		pn, ph, pc, err := decodePropose(preps[rank])
		if err != nil {
			panic(&ClusterError{Op: fmt.Sprintf("decode propose from member %d", rank), Err: err})
		}
		changed = changed || pc
		if ph && (!ok || pn < at) {
			at, ok = pn, true
		}
	}
	if ok {
		c.stats.Epochs++
	}
	return at, ok, changed
}
