package socialgraph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// decodeFrozenReference is the plain CSR decoder FuzzDecodeFrozen holds
// DecodeFrozen to: every varint read by binary.Uvarint off the front of b,
// the same count, range, order and self-loop checks, and no symmetry pass.
// Followed by checkInvariantsReference, it accepts exactly what
// DecodeFrozen must.
func decodeFrozenReference(b []byte) (*Frozen, error) {
	numIDs64, b, err := refUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("%w: id space: %v", ErrCodec, err)
	}
	if numIDs64 > maxCodecIDs {
		return nil, fmt.Errorf("%w: id space %d exceeds limit", ErrCodec, numIDs64)
	}
	// The bitmap, the user and edge counts, and one degree per ID.
	if need := (numIDs64+7)/8 + 2 + numIDs64; need > uint64(len(b)) {
		return nil, fmt.Errorf("%w: id space %d needs at least %d bytes, %d left", ErrCodec, numIDs64, need, len(b))
	}
	n := int(numIDs64)
	bitmap := (n + 7) / 8

	present := make([]bool, n)
	users := 0
	for u := range present {
		if b[u/8]&(1<<(u%8)) != 0 {
			present[u] = true
			users++
		}
	}
	b = b[bitmap:]

	users64, b, err := refUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("%w: user count: %v", ErrCodec, err)
	}
	if users64 != uint64(users) {
		return nil, fmt.Errorf("%w: user count %d != bitmap %d", ErrCodec, users64, users)
	}
	edges64, b, err := refUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("%w: edge count: %v", ErrCodec, err)
	}
	// Each edge is two row entries after the n degrees.
	if n > len(b) || edges64 > uint64(len(b)-n)/2 {
		return nil, fmt.Errorf("%w: %d edges and %d degrees exceed the %d bytes left", ErrCodec, edges64, n, len(b))
	}

	offsets := make([]int64, n+1)
	for u := 0; u < n; u++ {
		var deg uint64
		if deg, b, err = refUvarint(b); err != nil {
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
	if total > int64(len(b)) {
		return nil, fmt.Errorf("%w: %d row entries exceed the %d bytes left", ErrCodec, total, len(b))
	}

	adj := make([]UserID, total)
	for u := 0; u < n; u++ {
		row := adj[offsets[u]:offsets[u+1]]
		v := int64(-1)
		for i := range row {
			var delta uint64
			if delta, b, err = refUvarint(b); err != nil {
				return nil, fmt.Errorf("%w: row of %d: %v", ErrCodec, u, err)
			}
			if delta > maxCodecIDs {
				return nil, fmt.Errorf("%w: row delta %d of user %d exceeds id space", ErrCodec, delta, u)
			}
			if i == 0 {
				v = int64(delta) // first entry is absolute
			} else if delta == 0 {
				return nil, fmt.Errorf("%w: row of %d not strictly ascending", ErrCodec, u)
			} else {
				v += int64(delta)
			}
			if v >= int64(n) || int64(u) == v {
				return nil, fmt.Errorf("%w: edge %d->%d out of range", ErrCodec, u, v)
			}
			row[i] = UserID(v)
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(b))
	}
	return &Frozen{
		offsets: offsets,
		adj:     adj,
		present: present,
		users:   users,
		edges:   int(edges64),
	}, nil
}

// refUvarint splits the varint at the front of b off it.
func refUvarint(b []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(b)
	switch {
	case k == 0:
		return 0, b, io.ErrUnexpectedEOF
	case k < 0:
		return 0, b, errRefVarintOverflow
	}
	return v, b[k:], nil
}

var errRefVarintOverflow = errors.New("varint overflows 64 bits")
