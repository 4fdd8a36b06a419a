package server

import (
	"net/http"
	"sort"

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

// Prov-read op kinds: a "vertex" read resolves one tuple VID at a node
// (its pinned tuple value plus its derivation entries); an "exec" read
// resolves one rule execution RID at the node where it ran, and
// piggybacks the vertex data of every input tuple — inputs are local
// to the executing node, so one exec read hands the walk everything it
// needs to keep going there. A result's TupleOK/DerivsOK/ExecOK mirror
// the independent partition lookups, so a federated walk reproduces
// the exact missing-data behaviour of a local one; its Err is a stable
// code only when the op itself was misdirected or malformed.
const (
	ProvReadVertex = client.ProvReadVertex
	ProvReadExec   = client.ProvReadExec
)

// MaxProvReads bounds how many ops one POST /v1/prov/read request may
// carry.
const MaxProvReads = 4096

// ProvReadRequest is the POST /v1/prov/read body.
type ProvReadRequest struct {
	// Version pins the snapshot every read resolves against (0 means
	// current; sharded federation always pins explicitly).
	Version uint64 `json:"version,omitempty"`
	// Reads are executed independently, results in request order.
	Reads []client.ProvReadOp `json:"reads"`
}

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
// snapshot. Safe for concurrent use (the snapshot is immutable).
func (s *Snapshot) ProvRead(ops []client.ProvReadOp) []client.ProvReadResult {
	out := make([]client.ProvReadResult, len(ops))
	for i, op := range ops {
		out[i] = s.provReadOne(op)
	}
	return out
}

func (s *Snapshot) provReadOne(op client.ProvReadOp) client.ProvReadResult {
	v := s.viewOf(op.Loc)
	if v == nil {
		pos := sort.SearchStrings(s.AllNodes, op.Loc)
		if pos < len(s.AllNodes) && s.AllNodes[pos] == op.Loc {
			return client.ProvReadResult{Err: ErrWrongShard}
		}
		return client.ProvReadResult{Err: ErrUnknownNode}
	}
	id, err := rel.ParseID(op.ID)
	if err != nil {
		return client.ProvReadResult{Err: ErrInvalidRequest}
	}
	switch op.Op {
	case ProvReadVertex:
		return client.ProvReadResult{ProvVertex: vertexOf(v, id)}
	case ProvReadExec:
		var out client.ProvReadResult
		exec, ok := v.Exec(id)
		if !ok {
			return out
		}
		out.ExecOK = true
		out.Exec = &client.ProvExec{Rule: exec.Rule, VIDs: make([]string, len(exec.VIDs))}
		seen := map[rel.ID]bool{}
		for i, vid := range exec.VIDs {
			out.Exec.VIDs[i] = vid.String()
			if seen[vid] {
				continue
			}
			seen[vid] = true
			out.Inputs = append(out.Inputs, client.ProvInput{
				VID:        vid.String(),
				ProvVertex: vertexOf(v, vid),
			})
		}
		return out
	default:
		return client.ProvReadResult{Err: ErrInvalidRequest}
	}
}

// handleProvRead is POST /v1/prov/read: batched partition reads
// against one pinned snapshot — the wire protocol a federating
// gateway resolves remote-shard walk steps with. Only New mounts it, so
// the backend is a Publisher and every pin carries its snapshot.
func (s *Server) handleProvRead(w http.ResponseWriter, r *http.Request) *APIError {
	var req ProvReadRequest
	if apiErr := decodeBody(w, r, &req); apiErr != nil {
		return apiErr
	}
	if len(req.Reads) == 0 {
		return Errf(http.StatusBadRequest, ErrInvalidRequest, "empty read batch")
	}
	if len(req.Reads) > MaxProvReads {
		return Errf(http.StatusBadRequest, ErrInvalidRequest,
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
