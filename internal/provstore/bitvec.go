package provstore

import (
	"math/bits"

	"repro/internal/wire"
)

// bitvec is an append-built bit vector with O(1) rank and O(log n)
// select, the substrate of the segment's succinct trie index. Bits are
// packed into 64-bit words; a cumulative popcount is sampled once per
// word (32 bits of directory per 64 bits of payload — not
// information-theoretically tight, but segments index thousands of
// keys, not billions, and the directory rebuilds in one pass at load).
//
// After Marshal/unmarshalBitvec a bitvec is read-only; the provstore
// never mutates a loaded one.
type bitvec struct {
	n     int      // bits appended
	words []uint64 // bit i lives in words[i/64] at 1<<(i%64)
	// ranks[i] counts the one bits in words[:i]; built by finish().
	ranks []uint32
	ones  int
}

// appendBit grows the vector by one bit. Build-time only.
func (b *bitvec) appendBit(v bool) {
	if b.n%64 == 0 {
		b.words = append(b.words, 0)
	}
	if v {
		b.words[b.n/64] |= 1 << uint(b.n%64)
	}
	b.n++
}

// finish builds the rank directory; call once after the last append.
func (b *bitvec) finish() {
	b.ranks = make([]uint32, len(b.words)+1)
	total := 0
	for i, w := range b.words {
		b.ranks[i] = uint32(total)
		total += bits.OnesCount64(w)
	}
	b.ranks[len(b.words)] = uint32(total)
	b.ones = total
}

// get returns bit i.
func (b *bitvec) get(i int) bool {
	return b.words[i/64]&(1<<uint(i%64)) != 0
}

// rank1 counts one bits in [0, i] (inclusive). i must be in range.
func (b *bitvec) rank1(i int) int {
	w := i / 64
	mask := ^uint64(0) >> uint(63-i%64)
	return int(b.ranks[w]) + bits.OnesCount64(b.words[w]&mask)
}

// rank0 counts zero bits strictly before i (i.e. in [0, i)).
func (b *bitvec) rank0(i int) int {
	if i == 0 {
		return 0
	}
	return i - b.rank1(i-1)
}

// select1 returns the position of the k-th one bit (1-indexed), or b.n
// when fewer than k ones exist — the "past the end" sentinel the trie
// uses to bound the last node's child block.
func (b *bitvec) select1(k int) int {
	if k <= 0 || k > b.ones {
		return b.n
	}
	// Binary search the word holding the k-th one, then scan it.
	lo, hi := 0, len(b.words)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if int(b.ranks[mid+1]) >= k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	need := k - int(b.ranks[lo])
	w := b.words[lo]
	for i := 0; i < 64; i++ {
		if w&(1<<uint(i)) != 0 {
			need--
			if need == 0 {
				return lo*64 + i
			}
		}
	}
	return b.n // unreachable when the directory is consistent
}

// marshal appends the vector's wire form: uvarint bit count, then the
// packed words little-endian.
func (b *bitvec) marshal(buf []byte) []byte {
	buf = wire.AppendUvarint(buf, uint64(b.n))
	for _, word := range b.words {
		buf = wire.AppendUint64(buf, word)
	}
	return buf
}

// unmarshalBitvec decodes one vector and rebuilds its rank directory.
// A failure is recorded on r; the result is never nil.
func unmarshalBitvec(r *wire.Reader) *bitvec {
	n := r.Uvarint("bitvec length")
	if n > 8*uint64(r.Len()) {
		r.Failf("bitvec of %d bits exceeds input", n)
		return &bitvec{}
	}
	b := &bitvec{n: int(n), words: make([]uint64, (n+63)/64)}
	for i := range b.words {
		b.words[i] = r.Uint64("bitvec words")
	}
	if n%64 != 0 && b.words[len(b.words)-1]>>uint(n%64) != 0 {
		r.Failf("bitvec has bits past its length")
	}
	b.finish()
	return b
}
