package artifact

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"
)

// reseal returns a copy of data with every section CRC recomputed, so
// mutated bytes get past the checksum into the graph, weight and
// schema decoders. Input whose section table does not parse is
// returned unchanged.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) < 12 {
		return out
	}
	le := binary.LittleEndian
	off := 12
	for i := uint32(0); i < le.Uint32(out[8:]) && i < 16; i++ {
		if off+20 > len(out) {
			break
		}
		length, pad := le.Uint64(out[off+8:]), uint64(le.Uint32(out[off+16:]))
		start := uint64(off+20) + pad
		if pad > WeightAlign || length > uint64(len(out)) || start+length > uint64(len(out)) {
			break
		}
		le.PutUint32(out[off+4:], crc32.ChecksumIEEE(out[start:start+length]))
		off = int(start + length)
	}
	return out
}

// FuzzArtifactDecode feeds arbitrary bytes, as read and with resealed
// section CRCs, to Decode and Inspect: every input must be decoded or
// refused with an error, never panic.
func FuzzArtifactDecode(f *testing.F) {
	golden, err := os.ReadFile("testdata/golden.vedz")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, n := range []int{0, 11, 12, 40, len(golden) / 2, len(golden) - 1} {
		f.Add(golden[:n])
	}
	for _, bit := range []int{5 * 8, 9 * 8, 13 * 8, 30 * 8, len(golden) * 4, len(golden)*8 - 1} {
		flipped := append([]byte(nil), golden...)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			if m, err := Decode(in); err == nil && m.Graph == nil {
				t.Fatal("Decode returned no graph and no error")
			}
			if info, err := Inspect(in); err == nil && info == nil {
				t.Fatal("Inspect returned no summary and no error")
			}
		}
	})
}
