package gateway

import (
	"context"
	"fmt"

	"repro/client"
	"repro/internal/provenance"
	"repro/internal/provgraph"
	"repro/internal/rel"
)

// fedSource adapts a sharded deployment to the provgraph walk: the
// federated face of the one-walk design. Every read goes over HTTP to
// the owning shard's POST /v1/prov/read, pinned to the same snapshot
// version everywhere. Each reply carries its reach — everything the
// walk can go on to inside that shard — and absorb files it into the
// read caches, so a round trip is spent only where a proof crosses
// shards; vertex and execAt read on demand whatever a cut-off reach
// left out.
//
// Cross-node hops are deferred: Cross parks the hop and the query
// driver flushes the parked hops in rounds, so sibling expansions
// landing on the same shard ride one batched read request instead of
// one round trip each.
//
// The walk models each hop's traffic as over a snapshot, so federated
// bodies stay byte-identical to single-process ones; what federation
// really cost, each downstream request, addHops counts (X-Shard-Hops).
//
// One fedSource serves exactly one walk and is not safe for
// concurrent use, mirroring the walk itself.
type fedSource struct {
	g       *Gateway
	ctx     context.Context
	version uint64

	verts map[locID]vertexData
	execs map[locID]execData

	pending  []*provgraph.Hop
	perShard [][]client.ProvReadOp // flush's per-round read batches, by shard index

	// err is the first transport/protocol failure; once set, the walk
	// is abandoned and the query fails as a whole (never a silently
	// partial answer).
	err error
}

type locID struct {
	loc string
	id  rel.ID
}

// vertexData mirrors one ProvVertex after decoding: the two
// independent lookups a local walk would have performed.
type vertexData struct {
	tupleOK  bool
	tuple    rel.Tuple
	derivsOK bool
	derivs   []provenance.Entry
}

type execData struct {
	ok   bool
	exec provenance.ExecEntry
}

func newFedSource(g *Gateway, ctx context.Context, version uint64) *fedSource {
	return &fedSource{
		g:        g,
		ctx:      ctx,
		version:  version,
		verts:    map[locID]vertexData{},
		execs:    map[locID]execData{},
		perShard: make([][]client.ProvReadOp, g.shards.Len()),
	}
}

// fail records the first downstream failure.
func (s *fedSource) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// readShard issues one batch of reads against the shard owning them:
// one real hop.
func (s *fedSource) readShard(shard int, ops []client.ProvReadOp) ([]client.ProvReadResult, error) {
	addHops(s.ctx, 1)
	res, err := s.g.shards.Shard(shard).ProvRead(s.ctx, s.version, ops)
	if err != nil {
		return nil, err
	}
	return res.Results, nil
}

// decodeVertex turns a wire vertex into walk-ready partition data.
func decodeVertex(vid rel.ID, pv client.ProvVertex) (vertexData, error) {
	out := vertexData{tupleOK: pv.TupleOK, derivsOK: pv.DerivsOK}
	if pv.TupleOK {
		t, err := rel.UnmarshalTuple(pv.Tuple)
		if err != nil {
			return out, fmt.Errorf("bad tuple encoding: %w", err)
		}
		out.tuple = t
	}
	if pv.DerivsOK {
		out.derivs = make([]provenance.Entry, len(pv.Derivs))
		for i, d := range pv.Derivs {
			e := provenance.Entry{VID: vid, RLoc: d.RLoc}
			if d.RID != "" {
				rid, err := rel.ParseID(d.RID)
				if err != nil {
					return out, fmt.Errorf("bad rid: %w", err)
				}
				e.RID = rid
			}
			out.derivs[i] = e
		}
	}
	return out, nil
}

// absorb decodes one read result of the given shard into the source's
// caches, with its reach. A reach entry for a node the shard does not
// own is refused: a shard never plants data for another shard's nodes.
func (s *fedSource) absorb(shard int, op client.ProvReadOp, r client.ProvReadResult) error {
	if r.Err != "" {
		return fmt.Errorf("shard read %s %s@%s failed: %s", op.Op, op.ID, op.Loc, r.Err)
	}
	id, err := rel.ParseID(op.ID)
	if err != nil {
		return err
	}
	switch op.Op {
	case client.ProvReadVertex:
		vd, err := decodeVertex(id, r.ProvVertex)
		if err != nil {
			return err
		}
		s.verts[locID{op.Loc, id}] = vd
	case client.ProvReadExec:
		if !r.ExecOK {
			s.execs[locID{op.Loc, id}] = execData{}
		} else if r.Exec == nil {
			return fmt.Errorf("shard read %s %s@%s: execOk without exec", op.Op, op.ID, op.Loc)
		} else if err := s.absorbExec(op.Loc, id, r.Exec, r.Inputs); err != nil {
			return err
		}
	}
	for _, re := range r.Reach {
		if owner, ok := s.g.shards.OwnerOf(re.Loc); !ok || owner != shard {
			return fmt.Errorf("shard %d sent the reach of node %q, which it does not own", shard, re.Loc)
		}
		rid, err := rel.ParseID(re.RID)
		if err != nil {
			return fmt.Errorf("bad reach rid: %w", err)
		}
		if err := s.absorbExec(re.Loc, rid, &re.Exec, re.Inputs); err != nil {
			return err
		}
	}
	return nil
}

// absorbExec files one execution found at loc, and its inputs' vertex
// data, into the source's caches.
func (s *fedSource) absorbExec(loc string, rid rel.ID, exec *client.ProvExec, inputs []client.ProvInput) error {
	ed := execData{ok: true, exec: provenance.ExecEntry{RID: rid, Rule: exec.Rule, VIDs: make([]rel.ID, len(exec.VIDs))}}
	for i, vs := range exec.VIDs {
		vid, err := rel.ParseID(vs)
		if err != nil {
			return fmt.Errorf("bad vid: %w", err)
		}
		ed.exec.VIDs[i] = vid
	}
	for _, in := range inputs {
		vid, err := rel.ParseID(in.VID)
		if err != nil {
			return fmt.Errorf("bad input vid: %w", err)
		}
		vd, err := decodeVertex(vid, in.ProvVertex)
		if err != nil {
			return err
		}
		s.verts[locID{loc, vid}] = vd
	}
	s.execs[locID{loc, rid}] = ed
	return nil
}

// vertex resolves (loc, vid) through the cache, with a synchronous
// single read on a miss.
func (s *fedSource) vertex(loc string, vid rel.ID) vertexData {
	if _, ok := s.verts[locID{loc, vid}]; !ok {
		s.readOne(client.ProvReadOp{Op: client.ProvReadVertex, Loc: loc, ID: vid.String()})
	}
	return s.verts[locID{loc, vid}]
}

// execAt resolves (loc, rid) through the cache, with a synchronous
// single read on a miss (its input vertices arrive piggybacked).
func (s *fedSource) execAt(loc string, rid rel.ID) execData {
	if _, ok := s.execs[locID{loc, rid}]; !ok {
		s.readOne(client.ProvReadOp{Op: client.ProvReadExec, Loc: loc, ID: rid.String()})
	}
	return s.execs[locID{loc, rid}]
}

// readOne reads op alone from the shard owning its node and absorbs the
// result; a failure leaves the caches without it.
func (s *fedSource) readOne(op client.ProvReadOp) {
	if s.err != nil {
		return
	}
	shard, ok := s.g.shards.OwnerOf(op.Loc)
	if !ok {
		// The walk never reaches here for unknown nodes (derivation
		// entries only name real nodes), but fail safe.
		s.fail(fmt.Errorf("unknown node %q", op.Loc))
		return
	}
	res, err := s.readShard(shard, []client.ProvReadOp{op})
	if err == nil {
		err = s.absorb(shard, op, res[0])
	}
	if err != nil {
		s.fail(err)
	}
}

// ---- provgraph.Source ---------------------------------------------------

// TupleOf resolves a pinned VID at loc via the owning shard.
func (s *fedSource) TupleOf(loc string, vid rel.ID) (rel.Tuple, bool) {
	vd := s.vertex(loc, vid)
	return vd.tuple, vd.tupleOK
}

// Derivations returns the derivation entries of vid at loc.
func (s *fedSource) Derivations(loc string, vid rel.ID) ([]provenance.Entry, bool) {
	vd := s.vertex(loc, vid)
	return vd.derivs, vd.derivsOK
}

// Exec returns the rule execution recorded for rid at loc.
func (s *fedSource) Exec(loc string, rid rel.ID) (provenance.ExecEntry, bool) {
	ed := s.execAt(loc, rid)
	return ed.exec, ed.ok
}

// Err is the first downstream failure.
func (s *fedSource) Err() error { return s.err }

// Cross parks a hop on its way out, so the flush can batch it with
// siblings landing on the same shard; one on its way back resumes at
// once.
func (s *fedSource) Cross(h *provgraph.Hop) {
	if h.Back() {
		h.Resume()
		return
	}
	s.pending = append(s.pending, h)
}

// flush runs one round of parked hops: prefetch every missing exec (one
// batched read per shard), then resume the walk with each hop in order.
// The per-shard reads go out in shard-index order, so the downstream
// request sequence — and which failure a walk reports when two shards
// fail in one round — is the same on every run. Hops the resumed walk
// parks wait for the next round.
func (s *fedSource) flush() {
	batch := s.pending
	s.pending = nil
	for i := range s.perShard {
		s.perShard[i] = s.perShard[i][:0]
	}
	queued := map[locID]bool{}
	for _, h := range batch {
		key := locID{h.Loc(), h.RID()}
		if _, ok := s.execs[key]; ok || queued[key] {
			continue
		}
		shard, ok := s.g.shards.OwnerOf(h.Loc())
		if !ok {
			s.fail(fmt.Errorf("unknown node %q", h.Loc()))
			return
		}
		queued[key] = true
		s.perShard[shard] = append(s.perShard[shard],
			client.ProvReadOp{Op: client.ProvReadExec, Loc: h.Loc(), ID: h.RID().String()})
	}
	for shard, ops := range s.perShard {
		if len(ops) == 0 {
			continue
		}
		res, err := s.readShard(shard, ops)
		if err != nil {
			s.fail(err)
			return
		}
		for i, op := range ops {
			if err := s.absorb(shard, op, res[i]); err != nil {
				s.fail(err)
				return
			}
		}
	}
	for _, h := range batch {
		if s.err != nil {
			return
		}
		h.Resume()
	}
}
