package serve

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"vedliot/internal/tensor"
)

// frameBytes encodes one complete frame.
func frameBytes(typ byte, payload []byte) []byte {
	b := beginFrame(typ, 7, len(payload))
	return append([]byte(nil), finishFrame(append(b, payload...))...)
}

// FuzzFrameDecode feeds arbitrary bytes to the framed-TCP decoders, as
// a stream of frames and as one frame body: every input must end in an
// error or a decoded value, never a panic, and decoding may allocate
// only in proportion to the bytes it was given — a header or count that
// claims more than arrived must not reserve it.
func FuzzFrameDecode(f *testing.F) {
	req := appendString(nil, "tiny")
	req, err := appendTensorMap(req, map[string]*tensor.Tensor{
		"x": tensor.New(tensor.FP32, 2, 3),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frameBytes(TypeHello, appendString(nil, "key")))
	f.Add(frameBytes(TypeRequest, req))
	f.Add(overflowTensorMap())
	f.Add(frameBytes(TypeRequest, append(appendString(nil, "tiny"), overflowTensorMap()...)))
	f.Add(binary.LittleEndian.AppendUint32(nil, DefaultMaxFrame)) // claims 16MB, sends none
	f.Add([]byte{0xff, 0xff})                                     // tensor count 65535, no tensors
	f.Add([]byte{1, 0, 0, 0, dtFP32, 255})                        // rank 255, no dims
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data), DefaultMaxFrame)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for {
			fm, err := fr.next()
			if err != nil {
				break
			}
			if _, err := fm.body.str(); err == nil {
				fm.body.tensorMap()
			}
		}
		whole := decoder{b: data}
		whole.tensorMap()
		named := decoder{b: data}
		if _, err := named.str(); err == nil {
			named.tensorMap()
		}
		runtime.ReadMemStats(&after)
		// Slack covers one 64 KiB read chunk, error values and whatever
		// the fuzzing engine allocates meanwhile.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+256<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
	})
}
