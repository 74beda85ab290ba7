package socialgraph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzDecodeFrozen drives the CSR decoder directly; FuzzReadSnapshot cannot
// reach it, because the section checksum rejects its mutations first.
// DecodeFrozen must accept exactly what decodeFrozenReference followed by
// checkInvariantsReference accepts, return the same graph, and type every
// error ErrCodec. Mutated rows are often asymmetric, so the fuzzer reaches
// the decoder's symmetry pass with graphs that must fail it. Every graph it
// accepts is encoded again: AppendBinary's bytes must equal appendFrozen's
// and decode to the same graph. Besides a valid encoding and its
// truncations and flips, the seeds are varintWidthCases.
func FuzzDecodeFrozen(f *testing.F) {
	valid := randomGraph(f, 40, 120, 3).Freeze().AppendBinary(nil)

	f.Add(valid)
	f.Add([]byte{})
	for _, cut := range []int{1, 2, 6, 8, 40, len(valid) / 2, len(valid) - 1} {
		f.Add(append([]byte(nil), valid[:cut]...))
	}
	for _, pos := range []int{0, 3, 7, 9, 50, len(valid) / 2, len(valid) - 2} {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), valid...)
			mut[pos] ^= mask
			f.Add(mut)
		}
	}
	// A header claiming 2^31 IDs in front of a small real body.
	f.Add(append(binary.AppendUvarint(nil, 1<<31), valid[1:]...))

	for _, tc := range varintWidthCases(f) {
		f.Add(tc.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeFrozen(data)
		ref, refErr := decodeFrozenReference(data)
		if refErr == nil {
			refErr = checkInvariantsReference(ref)
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeFrozen %v, reference %v", err, refErr)
		}
		if err != nil {
			if !errors.Is(err, ErrCodec) {
				t.Fatalf("error not typed ErrCodec: %v", err)
			}
			if got != nil {
				t.Fatal("graph returned alongside error")
			}
			return
		}
		if !got.Equal(ref) {
			t.Fatal("DecodeFrozen and the reference decoded different graphs")
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("decoded graph fails CheckInvariants: %v", err)
		}
		re := got.AppendBinary(nil)
		if !bytes.Equal(re, appendFrozen(nil, got, binary.AppendUvarint)) {
			t.Fatal("AppendBinary differs from appendFrozen")
		}
		again, err := DecodeFrozen(re)
		if err != nil || !again.Equal(got) {
			t.Fatalf("valid graph does not survive re-encoding: %v", err)
		}
	})
}

// appendFrozen is the plain CSR encoder AppendBinary is held to: it
// appends f's encoding with each row delta written by putDelta, and with
// binary.AppendUvarint it gives AppendBinary's bytes.
func appendFrozen(dst []byte, f *Frozen, putDelta func([]byte, uint64) []byte) []byte {
	n := len(f.present)
	dst = binary.AppendUvarint(dst, uint64(n))
	bitmap := make([]byte, (n+7)/8)
	for u, p := range f.present {
		if p {
			bitmap[u/8] |= 1 << (u % 8)
		}
	}
	dst = append(dst, bitmap...)
	dst = binary.AppendUvarint(dst, uint64(f.users))
	dst = binary.AppendUvarint(dst, uint64(f.edges))
	for u := 0; u < n; u++ {
		dst = binary.AppendUvarint(dst, uint64(f.offsets[u+1]-f.offsets[u]))
	}
	for u := 0; u < n; u++ {
		prev := UserID(0)
		for _, v := range f.row(UserID(u)) {
			dst = putDelta(dst, uint64(v-prev))
			prev = v
		}
	}
	return dst
}

// paddedUvarint appends v as a varint of exactly size bytes, padding with
// continuation bytes. binary.Uvarint reads up to ten bytes of it as v and
// reports eleven as an overflow.
func paddedUvarint(dst []byte, v uint64, size int) []byte {
	for k := 1; k < size; k++ {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

type decodeCase struct {
	name string
	data []byte
	want *Frozen // nil: decoding must fail
}

// wideGraph has rows starting at 127, 128, 16383 and 16384: row varints at
// the edges of the one- and two-byte widths AppendBinary writes and
// DecodeFrozen reads inline.
func wideGraph(t testing.TB) *Frozen {
	t.Helper()
	b := NewFrozenBuilder(16385)
	for u := UserID(0); u < 16385; u++ {
		if err := b.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddShard([]Edge{{0, 127}, {1, 128}, {2, 16383}, {3, 16384}}); err != nil {
		t.Fatal(err)
	}
	wide, err := b.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	return wide
}

// varintWidthCases are encodings with row varints at the edges of
// DecodeFrozen's inline one- and two-byte paths: wideGraph's rows, every
// delta padded to ten bytes, which decodes to the same graph, and to
// eleven, which overflows.
func varintWidthCases(t testing.TB) []decodeCase {
	t.Helper()
	small := randomGraph(t, 40, 120, 3).Freeze()
	wide := wideGraph(t)
	padded := func(size int) func([]byte, uint64) []byte {
		return func(dst []byte, v uint64) []byte { return paddedUvarint(dst, v, size) }
	}
	return []decodeCase{
		{"rows at 127, 128, 16383, 16384", appendFrozen(nil, wide, binary.AppendUvarint), wide},
		{"ten-byte deltas", appendFrozen(nil, small, padded(10)), small},
		{"eleven-byte deltas", appendFrozen(nil, small, padded(11)), nil},
	}
}

// TestDecodeFrozenVarintWidths decodes FuzzDecodeFrozen's varint seeds,
// and holds AppendBinary to appendFrozen on a random graph and on
// wideGraph, whose rows sit at the edges of its branch-free widths.
func TestDecodeFrozenVarintWidths(t *testing.T) {
	for _, f := range []*Frozen{randomGraph(t, 40, 120, 3).Freeze(), wideGraph(t)} {
		if !bytes.Equal(f.AppendBinary(nil), appendFrozen(nil, f, binary.AppendUvarint)) {
			t.Fatal("AppendBinary differs from appendFrozen")
		}
	}
	for _, tc := range varintWidthCases(t) {
		got, err := DecodeFrozen(tc.data)
		if tc.want == nil {
			if !errors.Is(err, ErrCodec) {
				t.Fatalf("%s: got %v, want ErrCodec", tc.name, err)
			}
			continue
		}
		if err != nil || !got.Equal(tc.want) {
			t.Fatalf("%s: decode error %v, or a different graph", tc.name, err)
		}
	}
}
