package server

import (
	"net/http"
	"slices"

	"repro/client"
	"repro/internal/provenance"
	"repro/internal/rel"
)

// This file is the shard-federation read protocol: POST /v1/prov/read
// serves batched, version-pinned reads of the provenance partitions a
// shard owns, and GET /v1/shards describes the shard so a gateway (or
// the SDK) can build the node→shard routing table. A federating
// gateway runs the provgraph walk itself and uses these reads to
// resolve vertices on remote shards; everything it fetches is frozen
// snapshot state, so responses are immutable per version and freely
// cacheable downstream.

// ProvReadVertex is the vertex op kind, as the SDK declares it.
const ProvReadVertex = client.ProvReadVertex

// MaxProvReads bounds how many ops one POST /v1/prov/read request may
// carry, and how many reach entries one response ships.
const MaxProvReads = 4096

// vertexOf assembles the wire vertex of vid at the given view.
func vertexOf(v *provenance.View, vid rel.ID) client.ProvVertex {
	var out client.ProvVertex
	if t, ok := v.TupleOf(vid); ok {
		out.TupleOK = true
		out.Tuple = rel.MarshalTuple(t)
	}
	if derivs, ok := v.Derivations(vid); ok {
		out.DerivsOK = true
		out.Derivs = make([]client.ProvDeriv, len(derivs))
		for i, d := range derivs {
			if !d.RID.IsZero() {
				out.Derivs[i] = client.ProvDeriv{RID: d.RID.String(), RLoc: d.RLoc}
			}
		}
	}
	return out
}

// ProvRead answers one batch of partition reads against this
// snapshot. Each result carries its reach: the rule executions a walk
// can go on to from it without leaving the nodes this snapshot owns,
// so a federating gateway spends a round trip only where a proof
// crosses shards. Safe for concurrent use (the snapshot is immutable).
func (s *Snapshot) ProvRead(ops []client.ProvReadOp) []client.ProvReadResult {
	return s.provRead(ops, MaxProvReads)
}

// provRead is ProvRead with at most budget reach entries in the whole
// response.
func (s *Snapshot) provRead(ops []client.ProvReadOp, budget int) []client.ProvReadResult {
	r := reacher{s: s, seen: map[locRID]bool{}, budget: budget}
	out := make([]client.ProvReadResult, len(ops))
	for i, op := range ops {
		out[i] = r.read(op)
		out[i].Reach = r.drain()
	}
	return out
}

type locRID struct {
	loc string
	rid rel.ID
}

// reacher is one response's closure pass: a breadth-first walk over
// (loc, rid) from each read, following a derivation only to a node this
// snapshot owns. Ops are taken in request order, derivations in
// View.Derivations order and inputs in exec.VIDs order, so a request's
// reach is deterministic. seen and budget span the whole request: an
// execution ships at most once per response.
type reacher struct {
	s      *Snapshot
	seen   map[locRID]bool
	queue  []locRID
	budget int // reach entries still allowed in this response
}

// read answers one op. A "vertex" read resolves one tuple VID at a node
// (its pinned tuple value plus its derivation entries); an "exec" read
// resolves one rule execution RID at the node where it ran, and
// piggybacks the vertex data of every input tuple — inputs are local
// to the executing node, so one exec read hands the walk everything it
// needs to keep going there. TupleOK/DerivsOK/ExecOK mirror the
// independent partition lookups, so a federated walk reproduces the
// exact missing-data behaviour of a local one; Err is a stable code
// only when the op itself was misdirected or malformed.
func (r *reacher) read(op client.ProvReadOp) client.ProvReadResult {
	v := r.s.viewOf(op.Loc)
	if v == nil {
		if _, ok := r.s.nodeIndex(op.Loc); ok {
			return client.ProvReadResult{Err: client.CodeWrongShard}
		}
		return client.ProvReadResult{Err: client.CodeUnknownNode}
	}
	id, err := rel.ParseID(op.ID)
	if err != nil {
		return client.ProvReadResult{Err: client.CodeInvalidRequest}
	}
	switch op.Op {
	case client.ProvReadVertex:
		r.follow(v, id)
		return client.ProvReadResult{ProvVertex: vertexOf(v, id)}
	case client.ProvReadExec:
		exec, ok := v.Exec(id)
		if !ok {
			return client.ProvReadResult{}
		}
		r.seen[locRID{op.Loc, id}] = true
		r.followInputs(v, exec)
		pe, inputs := execOf(v, exec)
		return client.ProvReadResult{ExecOK: true, Exec: &pe, Inputs: inputs}
	default:
		return client.ProvReadResult{Err: client.CodeInvalidRequest}
	}
}

// follow queues the executions behind vid's derivations at v that ran
// on an owned node and are not seen yet.
func (r *reacher) follow(v *provenance.View, vid rel.ID) {
	if r.budget == 0 {
		return
	}
	derivs, _ := v.Derivations(vid)
	for _, d := range derivs {
		if d.RID.IsZero() || r.s.viewOf(d.RLoc) == nil {
			continue
		}
		if key := (locRID{d.RLoc, d.RID}); !r.seen[key] {
			r.seen[key] = true
			r.queue = append(r.queue, key)
		}
	}
}

func (r *reacher) followInputs(v *provenance.View, exec provenance.ExecEntry) {
	for _, vid := range exec.VIDs {
		r.follow(v, vid)
	}
}

// drain ships the queued executions and everything they reach, until
// the queue empties or the budget runs out.
func (r *reacher) drain() []client.ProvReach {
	var out []client.ProvReach
	for len(r.queue) > 0 && r.budget > 0 {
		at := r.queue[0]
		r.queue = r.queue[1:]
		v := r.s.viewOf(at.loc)
		exec, ok := v.Exec(at.rid)
		if !ok {
			continue // left to an exec read, which reports it missing
		}
		r.budget--
		r.followInputs(v, exec)
		e := client.ProvReach{Loc: at.loc, RID: at.rid.String()}
		e.Exec, e.Inputs = execOf(v, exec)
		out = append(out, e)
	}
	return out
}

// execOf assembles the wire form of an execution and the vertex data of
// its distinct inputs.
func execOf(v *provenance.View, exec provenance.ExecEntry) (client.ProvExec, []client.ProvInput) {
	out := client.ProvExec{Rule: exec.Rule, VIDs: make([]string, len(exec.VIDs))}
	inputs := make([]client.ProvInput, 0, len(exec.VIDs))
	for i, vid := range exec.VIDs {
		out.VIDs[i] = vid.String()
		if !slices.Contains(exec.VIDs[:i], vid) { // a rule body has a handful of atoms
			inputs = append(inputs, client.ProvInput{VID: out.VIDs[i], ProvVertex: vertexOf(v, vid)})
		}
	}
	return out, inputs
}

// handleProvRead is POST /v1/prov/read: batched partition reads
// against one pinned snapshot — the wire protocol a federating
// gateway resolves remote-shard walk steps with. Only New mounts it, so
// the backend is a Publisher and every pin carries its snapshot.
func (s *Server) handleProvRead(w http.ResponseWriter, r *http.Request) *client.APIError {
	var req client.ProvReadRequest
	if apiErr := decodeBody(w, r, &req); apiErr != nil {
		return apiErr
	}
	if len(req.Reads) == 0 {
		return Errf(http.StatusBadRequest, client.CodeInvalidRequest, "empty read batch")
	}
	if len(req.Reads) > MaxProvReads {
		return Errf(http.StatusBadRequest, client.CodeInvalidRequest,
			"%d reads exceed the maximum %d", len(req.Reads), MaxProvReads)
	}
	pin, apiErr := s.b.Pin(r.Context(), req.Version)
	if apiErr != nil {
		return apiErr
	}
	results := pin.snap.ProvRead(req.Reads)
	s.provReads.Add(int64(len(req.Reads)))
	WriteJSON(w, http.StatusOK, client.ProvReads{Version: pin.Version, Results: results})
	return nil
}

// ProvReads reports how many prov-read ops this server has answered —
// the observable downstream-activity counter the cross-shard
// cancellation tests watch.
func (s *Server) ProvReads() int64 { return s.provReads.Load() }
