package socialgraph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// ErrCodec is wrapped by every decode error: malformed input is reported as
// a typed error, never a panic, regardless of how the bytes were produced.
var ErrCodec = errors.New("socialgraph: malformed frozen encoding")

// maxCodecIDs bounds the ID space a snapshot may declare: every ID below it
// fits a UserID.
const maxCodecIDs = 1 << 31

// AppendBinary appends the snapshot's encoding to b and returns the
// extended buffer: ID-space size, the present bitmap, user and edge counts,
// per-ID degrees, then each row delta-encoded (rows are strictly
// ascending, so every entry after the first is a positive delta).
// Decoding is a single linear pass — no sorting, no hashing — which is what
// makes binary world reload O(read).
//
// The buffer grows once, by two bytes per degree and one and a half per row
// entry, more than generated worlds' rows take (1.14 bytes an entry in the
// tiny world, 1.36 in a metro world of 80 schools). Each row makes sure of
// room for its widest encoding, which grows the buffer again only in a
// graph whose rows take more, and writes its deltas by index. One- and
// two-byte deltas, 99.1% of a metro world's, are written without a branch
// on which of the two it is, as DecodeFrozen reads them: the first byte
// continues exactly when the delta has bits above its low seven, and the
// second is written either way, to be overwritten by the next entry when
// it is not used.
func (f *Frozen) AppendBinary(b []byte) []byte {
	n := len(f.present)
	b = slices.Grow(b, 3*binary.MaxVarintLen64+(n+7)/8+2*n+len(f.adj)*3/2)
	b = binary.AppendUvarint(b, uint64(n))
	for u := 0; u < n; u += 8 {
		var c byte
		for k, p := range f.present[u:min(u+8, n)] {
			if p {
				c |= 1 << k
			}
		}
		b = append(b, c)
	}
	b = binary.AppendUvarint(b, uint64(f.users))
	b = binary.AppendUvarint(b, uint64(f.edges))
	for u := 0; u < n; u++ {
		b = binary.AppendUvarint(b, uint64(f.offsets[u+1]-f.offsets[u]))
	}
	for u := 0; u < n; u++ {
		row := f.adj[f.offsets[u]:f.offsets[u+1]]
		b = slices.Grow(b, binary.MaxVarintLen32*len(row))
		out, i := b[:cap(b)], len(b)
		prev := UserID(0)
		for _, v := range row {
			d := uint64(v - prev) // the first entry is absolute
			prev = v
			if d >= 1<<14 {
				i += binary.PutUvarint(out[i:], d)
				continue
			}
			hi := d >> 7
			two := (hi + 0x7f) >> 7 // 1 when hi != 0, since hi < 0x80
			out[i] = byte(d&0x7f | two<<7)
			out[i+1] = byte(hi)
			i += 1 + int(two)
		}
		b = out[:i]
	}
	return b
}

// DecodeFrozen decodes the complete encoding of a snapshot written by
// AppendBinary and proves it: every snapshot it returns passes
// CheckInvariants, so a reader need not walk the rows again. Bytes after
// the last row are an error. Every length prefix is untrusted. Each claimed
// count is checked against the bytes left before the slice it sizes is
// allocated, since every degree and every adjacency entry costs at least
// one byte, so a lying header cannot drive allocation beyond a small
// multiple of len(b). present, offsets and adj are allocated once each, at
// their exact size, and none of them aliases b. Each row entry is checked
// for range, strict order and self-loops as it is read, which is what
// checkSymmetric requires; symmetry is proved last. Any violation returns
// an error wrapping ErrCodec.
func DecodeFrozen(b []byte) (*Frozen, error) {
	numIDs64, i, err := uvarintAt(b, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: id space: %v", ErrCodec, err)
	}
	if numIDs64 > maxCodecIDs {
		return nil, fmt.Errorf("%w: id space %d exceeds limit", ErrCodec, numIDs64)
	}
	// The bitmap, the user and edge counts, and one degree per ID.
	if need := (numIDs64+7)/8 + 2 + numIDs64; need > uint64(len(b)-i) {
		return nil, fmt.Errorf("%w: id space %d needs at least %d bytes, %d left", ErrCodec, numIDs64, need, len(b)-i)
	}
	n := int(numIDs64)

	present := make([]bool, n)
	users := 0
	bitmap := b[i : i+(n+7)/8]
	for u := range present {
		if bitmap[u/8]&(1<<(u%8)) != 0 {
			present[u] = true
			users++
		}
	}
	i += len(bitmap)

	users64, i, err := uvarintAt(b, i)
	if err != nil {
		return nil, fmt.Errorf("%w: user count: %v", ErrCodec, err)
	}
	if users64 != uint64(users) {
		return nil, fmt.Errorf("%w: user count %d != bitmap %d", ErrCodec, users64, users)
	}
	edges64, i, err := uvarintAt(b, i)
	if err != nil {
		return nil, fmt.Errorf("%w: edge count: %v", ErrCodec, err)
	}
	// Each edge is two row entries after the n degrees.
	if left := len(b) - i; n > left || edges64 > uint64(left-n)/2 {
		return nil, fmt.Errorf("%w: %d edges and %d degrees exceed the %d bytes left", ErrCodec, edges64, n, left)
	}

	offsets := make([]int64, n+1)
	for u := 0; u < n; u++ {
		var deg uint64
		if deg, i, err = uvarintAt(b, i); err != nil {
			return nil, fmt.Errorf("%w: degree of %d: %v", ErrCodec, u, err)
		}
		if deg > uint64(n) {
			return nil, fmt.Errorf("%w: degree %d of user %d exceeds id space", ErrCodec, deg, u)
		}
		if deg > 0 && !present[u] {
			return nil, fmt.Errorf("%w: absent user %d has degree %d", ErrCodec, u, deg)
		}
		offsets[u+1] = offsets[u] + int64(deg)
	}
	total := offsets[n]
	if total != int64(2*edges64) {
		return nil, fmt.Errorf("%w: degree sum %d != 2×%d edges", ErrCodec, total, edges64)
	}
	if total > int64(len(b)-i) {
		return nil, fmt.Errorf("%w: %d row entries exceed the %d bytes left", ErrCodec, total, len(b)-i)
	}

	adj := make([]UserID, total)
	for u := 0; u < n; u++ {
		row := adj[offsets[u]:offsets[u+1]]
		v := int64(-1)
		for k := range row {
			// One- and two-byte deltas, 99.1% of a metro world's, are
			// read inline, without a branch on which of the two it is:
			// clustered and far friends mix in every row. two is 1 when
			// the first byte continues, and then the second must end
			// the varint. uvarintAt reads the rest and reports errors.
			var delta uint64
			if i+1 < len(b) && b[i]&b[i+1] < 0x80 {
				c0, c1 := uint64(b[i]), uint64(b[i+1])
				two := c0 >> 7
				delta = c0&0x7f | c1<<7&-two
				i += 1 + int(two)
			} else if delta, i, err = uvarintAt(b, i); err != nil {
				return nil, fmt.Errorf("%w: row of %d: %v", ErrCodec, u, err)
			}
			if delta > maxCodecIDs {
				return nil, fmt.Errorf("%w: row delta %d of user %d exceeds id space", ErrCodec, delta, u)
			}
			if k == 0 {
				v = int64(delta) // first entry is absolute
			} else if delta == 0 {
				return nil, fmt.Errorf("%w: row of %d not strictly ascending", ErrCodec, u)
			} else {
				v += int64(delta)
			}
			if v >= int64(n) || int64(u) == v {
				return nil, fmt.Errorf("%w: edge %d->%d out of range", ErrCodec, u, v)
			}
			row[k] = UserID(v)
		}
	}
	if i != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(b)-i)
	}
	f := &Frozen{
		offsets: offsets,
		adj:     adj,
		present: present,
		users:   users,
		edges:   int(edges64),
	}
	if err := f.checkSymmetric(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	return f, nil
}

// uvarintAt reads the varint at b[i:] and returns it with the index just
// past it.
func uvarintAt(b []byte, i int) (uint64, int, error) {
	v, k := binary.Uvarint(b[i:])
	switch {
	case k == 0:
		return 0, i, io.ErrUnexpectedEOF
	case k < 0:
		return 0, i, errVarintOverflow
	}
	return v, i + k, nil
}

var errVarintOverflow = errors.New("varint overflows 64 bits")
