// Wire codec for the distributed epoch protocol (cluster.go): the
// deterministic binary encoding of intercepted delta messages and of
// the per-round cut proposal. These bytes are what a simnet.Transport
// carries; the TCP framing/CRC layer around them lives in
// internal/nettransport.
package engine

import (
	"fmt"
	"math"

	"repro/internal/provenance"
	"repro/internal/rel"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// wireFrame is one intercepted delta delivery: the message plus the
// absolute virtual instant it must be injected at by the owner.
type wireFrame struct {
	At  simnet.Time
	Msg simnet.Message
}

// Payload kind tags inside a frame.
const (
	wireDeltaMsg   uint8 = 1
	wireDeltaBatch uint8 = 2
)

func encodeDeltaMsg(b []byte, dm DeltaMsg) []byte {
	b = wire.AppendBytes(b, rel.MarshalTuple(dm.Delta.Tuple))
	if dm.Delta.Sign >= 0 {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	if !dm.HasProv {
		return append(b, 0)
	}
	b = append(b, 1)
	b = append(b, dm.Prov.VID[:]...)
	b = append(b, dm.Prov.RID[:]...)
	return wire.AppendString(b, dm.Prov.RLoc)
}

func decodeDeltaMsg(r *wire.Reader) DeltaMsg {
	var dm DeltaMsg
	if raw := r.Bytes("delta tuple"); r.Err() == nil {
		t, err := rel.UnmarshalTuple(raw)
		if err != nil {
			r.Failf("wire: delta tuple: %w", err)
		}
		// Hashed once, on arrival, from the decoded attributes: the frame's
		// own VID below annotates the derivation and is never the tuple's.
		dm.Delta.Tuple = t.Identified()
	}
	if r.Byte("delta sign") == 1 {
		dm.Delta.Sign = 1
	} else {
		dm.Delta.Sign = -1
	}
	if r.Byte("delta hasProv") == 1 {
		dm.HasProv = true
		dm.Prov = provenance.Entry{
			VID:  rel.DecodeID(r, "delta prov VID"),
			RID:  rel.DecodeID(r, "delta prov RID"),
			RLoc: r.String("delta prov RLoc"),
		}
	}
	return dm
}

// encodeFrames serializes an outbox for one frames exchange. The layout
// is length-framed throughout: count, then per frame the virtual
// deliver-at instant, endpoints, accounted size, and the delta payload
// (a single DeltaMsg or a coalesced DeltaBatch).
func encodeFrames(frames []wireFrame) []byte {
	var b []byte
	b = wire.AppendUvarint(b, uint64(len(frames)))
	for _, f := range frames {
		b = wire.AppendUvarint(b, uint64(f.At))
		b = wire.AppendString(b, f.Msg.From)
		b = wire.AppendString(b, f.Msg.To)
		b = wire.AppendUvarint(b, uint64(f.Msg.Size))
		switch p := f.Msg.Payload.(type) {
		case DeltaMsg:
			b = append(b, wireDeltaMsg)
			b = encodeDeltaMsg(b, p)
		case DeltaBatch:
			b = append(b, wireDeltaBatch)
			b = wire.AppendUvarint(b, uint64(len(p.Msgs)))
			for _, dm := range p.Msgs {
				b = encodeDeltaMsg(b, dm)
			}
		default:
			panic(fmt.Sprintf("engine: cannot ship non-delta payload %T", f.Msg.Payload))
		}
	}
	return b
}

func decodeFrames(b []byte) ([]wireFrame, error) {
	r := wire.NewReader(b)
	n := r.Count("frame count", math.MaxInt)
	frames := make([]wireFrame, 0, wire.Prealloc(n))
	for i := 0; i < n && r.Err() == nil; i++ {
		var f wireFrame
		f.At = simnet.Time(r.Uvarint("frame at"))
		f.Msg.From = r.String("frame from")
		f.Msg.To = r.String("frame to")
		f.Msg.Size = int(r.Uvarint("frame size"))
		f.Msg.Kind = KindDelta
		f.Msg.Reliable = true
		switch kind := r.Byte("frame payload kind"); kind {
		case wireDeltaMsg:
			f.Msg.Payload = decodeDeltaMsg(&r)
		case wireDeltaBatch:
			cnt := r.Count("batch count", math.MaxInt)
			batch := DeltaBatch{Msgs: make([]DeltaMsg, 0, wire.Prealloc(cnt))}
			for j := 0; j < cnt && r.Err() == nil; j++ {
				batch.Msgs = append(batch.Msgs, decodeDeltaMsg(&r))
			}
			f.Msg.Payload = batch
		default:
			r.Failf("wire: unknown payload kind %d", kind)
		}
		frames = append(frames, f)
	}
	if err := r.Done("frames"); err != nil {
		return nil, err
	}
	return frames, nil
}

// encodePropose serializes one cut proposal: flag bits (bit0 = has a
// pending timestamp, bit1 = state changed since the last cut) plus the
// timestamp itself.
func encodePropose(next simnet.Time, hasNext, changed bool) []byte {
	var flags byte
	if hasNext {
		flags |= 1
	}
	if changed {
		flags |= 2
	}
	b := []byte{flags}
	return wire.AppendUvarint(b, uint64(next))
}

func decodePropose(b []byte) (next simnet.Time, hasNext, changed bool, err error) {
	r := wire.NewReader(b)
	flags := r.Byte("propose flags")
	next = simnet.Time(r.Uvarint("propose next"))
	if err := r.Done("propose"); err != nil {
		return 0, false, false, err
	}
	return next, flags&1 != 0, flags&2 != 0, nil
}
