package socialgraph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzDecodeFrozen drives the CSR decoder directly; FuzzReadSnapshot cannot
// reach it, because the section checksum rejects its mutations first. Any
// input must either fail with ErrCodec or decode to a graph on which
// CheckInvariants gives the reference's verdict. The decoder checks ranges
// and row order but leaves symmetry to CheckInvariants, so mutated rows
// exercise the linear symmetry pass on asymmetric graphs too.
func FuzzDecodeFrozen(f *testing.F) {
	var buf bytes.Buffer
	if err := randomGraph(f, 40, 120, 3).Freeze().WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

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

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeFrozen(data)
		if err != nil {
			if !errors.Is(err, ErrCodec) {
				t.Fatalf("error not typed ErrCodec: %v", err)
			}
			if got != nil {
				t.Fatal("graph returned alongside error")
			}
			return
		}
		fast, ref := got.CheckInvariants(), checkInvariantsReference(got)
		if (fast == nil) != (ref == nil) {
			t.Fatalf("CheckInvariants %v, reference %v", fast, ref)
		}
		if fast != nil {
			return
		}
		var re bytes.Buffer
		if err := got.WriteBinary(&re); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeFrozen(re.Bytes())
		if err != nil || !again.Equal(got) {
			t.Fatalf("valid graph does not survive re-encoding: %v", err)
		}
	})
}
