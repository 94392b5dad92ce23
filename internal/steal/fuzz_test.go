package steal

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// FuzzDecodeStealFrame asserts the frame decoder's hostile-input
// contract: it never panics, and whatever it accepts re-encodes to the
// exact input bytes (the format is canonical, so a frame relayed through
// decode/encode is byte-identical).
func FuzzDecodeStealFrame(f *testing.F) {
	seed := func(fr *Frame) {
		b, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(validFrame())
	seed(&Frame{Codec: "synthetic", Stack: []byte{0}})
	seed(&Frame{Key: "deadbeef", Codec: "queens", Donation: 1 << 40, Cycle: 99, From: 7, To: 8,
		Stack: []byte{1, 2, 3}, DomainState: []byte{4, 5}})
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFrame(b)
		if err != nil {
			return
		}
		again, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", b, again)
		}
	})
}

// FuzzDecodeStealRound holds the batch codecs — the round and absorb
// batch bodies a node decodes and the results the coordinator decodes —
// to the frame decoder's line: no panic, every refusal wraps exactly one
// of the classified decode errors, a decode allocates at most a fixed
// multiple of its input, and whatever is accepted re-encodes to the
// exact input bytes.
func FuzzDecodeStealRound(f *testing.F) {
	for _, b := range validBatches() {
		enc, err := EncodeBatch(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	for _, r := range validResults() {
		enc, err := EncodeBatchResult(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte(batchMagic))
	f.Add([]byte{})

	classes := []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrCorrupt}
	classified := func(t *testing.T, err error) {
		n := 0
		for _, c := range classes {
			if errors.Is(err, c) {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("error %q wraps %d decode classes, want exactly one", err, n)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		batch, berr := DecodeBatch(b)
		result, rerr := DecodeBatchResult(b)
		runtime.ReadMemStats(&ms)
		if grew, bound := ms.TotalAlloc-before, uint64(32*len(b)+64<<10); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(b), grew, bound)
		}
		if berr != nil {
			classified(t, berr)
		} else if again, err := EncodeBatch(batch); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("batch decode/encode not canonical (%v):\n in  %x\n out %x", err, b, again)
		}
		if rerr != nil {
			classified(t, rerr)
		} else if again, err := EncodeBatchResult(result); err != nil || !bytes.Equal(again, b) {
			t.Fatalf("result decode/encode not canonical (%v):\n in  %x\n out %x", err, b, again)
		}
	})
}
