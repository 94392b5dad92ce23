package steal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// A load-balancing round is the unit of shard RPC, as the paper prices a
// whole phase's transfers as one router operation: per matching round the
// driver sends each donor shard one Batch of its local transfers and
// donor-side splits, then each receiving shard one Batch of its donation
// frames.  Over HTTP the two kinds travel to the session's /round and
// /absorb endpoints in the strict binary encoding below.

// BatchContentType is the media type batch requests and results travel
// under.
const BatchContentType = "application/vnd.simdtree.steal-batch"

// BatchVersion is the current batch and batch-result format version; any
// layout change must increment it.  It is independent of the frame
// Version: frames nest inside absorb batches byte-for-byte unchanged.
const BatchVersion = 1

// MaxBatchSize bounds an encoded batch or batch result either side will
// accept.  A round moves at most one split half per donor PE, each a few
// stack levels, so this is generous.
const MaxBatchSize = 64 << 20

// ErrBadBatch classifies a batch a host refuses as a whole before
// applying any of it: a PE outside the shard, a PE named twice, a
// transfer onto its donor, a busy receiver, a frame that does not decode.
var ErrBadBatch = errors.New("steal: invalid batch")

const (
	batchMagic  = "SSRB"
	resultMagic = "SSRR"

	// batchFlagsBit is bit 0 of a batch's flags byte (the caller wants
	// the post-batch busy/idle flags) and of a result's (they follow).
	batchFlagsBit byte = 1 << 0

	opTransfer byte = 0
	opSplit    byte = 1
)

// Op is one matched pair of a round, as its donor shard executes it.
type Op struct {
	// Split marks the donor side of a cross-shard pair: the split half
	// leaves the shard as donation Donation, addressed to PE To on
	// another shard.  Otherwise the op is a transfer between two PEs of
	// this shard and Donation is unused.
	Split    bool
	Donation uint64
	// From and To are global PE indices (donor and receiver).
	From, To int
}

// Batch is one shard's share of a matching round: either the round's
// local transfers and donor-side splits (Ops, in pair order) or the
// encoded SSTL frames addressed to the shard (Frames, in donation
// order), never both.  The PEs a batch names on its shard are pairwise
// disjoint — a matching pairs each busy and each idle PE at most once —
// so applying a batch in order equals applying its pairs one at a time.
type Batch struct {
	Ops    []Op
	Frames [][]byte
	// WantFlags asks for the shard's busy/idle flags after the batch;
	// multi-round schemes match their next round on them.
	WantFlags bool
}

// BatchResult answers a Batch.
type BatchResult struct {
	// Moved holds the nodes each op moved; a donor that cannot split
	// moves nothing.
	Moved []int
	// Stacks holds, per op, the wire-encoded half a split donated; it is
	// nil for transfers and for splits that moved nothing.
	Stacks [][]byte
	// Absorbed holds the nodes each frame installed.
	Absorbed []int
	// Busy and Idle are the shard's post-batch flags (index i covers
	// global PE lo+i), present when the batch asked for them.
	Busy, Idle []bool
}

// answers checks that r has one result per op and frame of b, and flags
// exactly when b asked for them.
func (r *BatchResult) answers(b *Batch) error {
	if len(r.Moved) != len(b.Ops) || len(r.Stacks) != len(b.Ops) || len(r.Absorbed) != len(b.Frames) {
		return fmt.Errorf("steal: a batch of %d ops and %d frames answered with %d/%d/%d results",
			len(b.Ops), len(b.Frames), len(r.Moved), len(r.Stacks), len(r.Absorbed))
	}
	if b.WantFlags != (r.Busy != nil) {
		return fmt.Errorf("steal: a batch asking for flags=%t answered with flags=%t", b.WantFlags, r.Busy != nil)
	}
	return nil
}

// EncodeBatch serialises a batch canonically:
//
//	"SSRB" | version byte | flags byte |
//	uvarint op count | per op: kind byte | from | to | [donation, splits only] |
//	uvarint frame count | per frame: uvarint-length-prefixed SSTL frame
func EncodeBatch(b *Batch) ([]byte, error) {
	size := len(batchMagic) + 3 + 2*binary.MaxVarintLen64 + 4*binary.MaxVarintLen64*len(b.Ops)
	for i, op := range b.Ops {
		if op.From < 0 || op.To < 0 {
			return nil, fmt.Errorf("steal: batch op %d has a negative PE (%d -> %d)", i, op.From, op.To)
		}
	}
	for i, f := range b.Frames {
		if len(f) == 0 {
			return nil, fmt.Errorf("steal: batch frame %d is empty", i)
		}
		size += binary.MaxVarintLen64 + len(f)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, batchMagic...)
	buf = append(buf, BatchVersion)
	var flags byte
	if b.WantFlags {
		flags |= batchFlagsBit
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(b.Ops)))
	for _, op := range b.Ops {
		kind := opTransfer
		if op.Split {
			kind = opSplit
		}
		buf = append(buf, kind)
		buf = binary.AppendUvarint(buf, uint64(op.From))
		buf = binary.AppendUvarint(buf, uint64(op.To))
		if op.Split {
			buf = binary.AppendUvarint(buf, op.Donation)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(b.Frames)))
	for _, f := range b.Frames {
		buf = appendBlob(buf, f)
	}
	return buf, nil
}

// DecodeBatch parses a batch produced by EncodeBatch.  Like DecodeFrame it
// is strict and canonical — bad magic or version, truncation, non-minimal
// varints, unknown flag bits or op kinds, empty frames and trailing bytes
// are rejected, each error wrapping exactly one of ErrBadMagic,
// ErrVersion, ErrTruncated and ErrCorrupt — and re-encoding a decoded
// batch reproduces the input.  Counts are checked against the bytes left
// before anything is allocated, so a decode allocates O(len(b)).  The
// frames are not decoded here; the host does that when it validates.
func DecodeBatch(b []byte) (*Batch, error) {
	r, flags, err := openBody(b, batchMagic)
	if err != nil {
		return nil, err
	}
	out := &Batch{WantFlags: flags&batchFlagsBit != 0}
	// An op is at least a kind byte and two one-byte varints.
	if n := r.length("op count", 3); n > 0 {
		out.Ops = make([]Op, n)
		for i := range out.Ops {
			op := &out.Ops[i]
			switch kind := r.byte(); {
			case r.err != nil:
			case kind == opSplit:
				op.Split = true
			case kind != opTransfer:
				r.fail(fmt.Errorf("%w: op %d has unknown kind %d", ErrCorrupt, i, kind))
			}
			op.From = r.count("op from")
			op.To = r.count("op to")
			if op.Split {
				op.Donation = r.uvarint("op donation")
			}
		}
	}
	// A frame is at least a one-byte length and one byte.
	if n := r.length("frame count", 2); n > 0 {
		out.Frames = make([][]byte, n)
		for i := range out.Frames {
			out.Frames[i] = r.blob("frame")
			if r.err == nil && len(out.Frames[i]) == 0 {
				r.fail(fmt.Errorf("%w: frame %d is empty", ErrCorrupt, i))
			}
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeBatchResult serialises a batch result canonically:
//
//	"SSRR" | version byte | flags byte |
//	uvarint op count | per op: moved | uvarint-length-prefixed stack |
//	uvarint frame count | per frame: absorbed |
//	[flags: uvarint PE count | busy words | idle words]
//
// Flags travel as little-endian 64-bit words, PE lo+i at word i/64, bit
// i%64, with the bits past the PE count zero.  GET /flags answers with a
// result that carries only the flags.
func EncodeBatchResult(r *BatchResult) ([]byte, error) {
	if r.Stacks != nil && len(r.Stacks) != len(r.Moved) {
		return nil, fmt.Errorf("steal: result has %d stacks for %d ops", len(r.Stacks), len(r.Moved))
	}
	if len(r.Busy) != len(r.Idle) {
		return nil, fmt.Errorf("steal: result has %d busy and %d idle flags", len(r.Busy), len(r.Idle))
	}
	size := len(resultMagic) + 3 + 3*binary.MaxVarintLen64 +
		2*binary.MaxVarintLen64*len(r.Moved) + binary.MaxVarintLen64*len(r.Absorbed) + 2*8*words(len(r.Busy))
	for _, s := range r.Stacks {
		size += len(s)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, resultMagic...)
	buf = append(buf, BatchVersion)
	hasFlags := r.Busy != nil || r.Idle != nil
	var flags byte
	if hasFlags {
		flags |= batchFlagsBit
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(r.Moved)))
	for i, n := range r.Moved {
		var s []byte
		if r.Stacks != nil {
			s = r.Stacks[i]
		}
		if n < 0 || (len(s) > 0 && n == 0) {
			return nil, fmt.Errorf("steal: result op %d moved %d nodes with a %d-byte stack", i, n, len(s))
		}
		buf = binary.AppendUvarint(buf, uint64(n))
		buf = appendBlob(buf, s)
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Absorbed)))
	for i, n := range r.Absorbed {
		if n < 0 {
			return nil, fmt.Errorf("steal: result frame %d absorbed %d nodes", i, n)
		}
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	if hasFlags {
		buf = binary.AppendUvarint(buf, uint64(len(r.Busy)))
		buf = appendFlagWords(buf, r.Busy)
		buf = appendFlagWords(buf, r.Idle)
	}
	return buf, nil
}

// DecodeBatchResult parses a result produced by EncodeBatchResult, with
// DecodeBatch's strictness, error classes and allocation bound; it also
// rejects a stack on an op that moved nothing, set bits past the PE
// count, and a PE flagged both busy and idle.
func DecodeBatchResult(b []byte) (*BatchResult, error) {
	r, flags, err := openBody(b, resultMagic)
	if err != nil {
		return nil, err
	}
	out := &BatchResult{}
	// An op result is at least a one-byte count and a zero length.
	if n := r.length("op count", 2); n > 0 {
		out.Moved = make([]int, n)
		out.Stacks = make([][]byte, n)
		for i := range out.Moved {
			out.Moved[i] = r.count("moved")
			out.Stacks[i] = r.blob("stack")
			if r.err == nil && out.Moved[i] == 0 && len(out.Stacks[i]) > 0 {
				r.fail(fmt.Errorf("%w: op %d carries a stack but moved nothing", ErrCorrupt, i))
			}
		}
	}
	if n := r.length("frame count", 1); n > 0 {
		out.Absorbed = make([]int, n)
		for i := range out.Absorbed {
			out.Absorbed[i] = r.count("absorbed")
		}
	}
	if flags&batchFlagsBit != 0 {
		n := r.count("flag count")
		// Both flag vectors together take 16 bytes per 64 PEs; the first
		// test keeps words(n) from overflowing.
		if r.err == nil && (n > 4*len(r.b) || 16*words(n) > len(r.b)) {
			r.fail(fmt.Errorf("%w: %d flags with %d bytes left", ErrTruncated, n, len(r.b)))
		}
		if r.err == nil {
			out.Busy = r.flagWords(n)
			out.Idle = r.flagWords(n)
		}
		for i := range out.Busy {
			if r.err == nil && out.Busy[i] && out.Idle[i] {
				r.fail(fmt.Errorf("%w: PE %d flagged both busy and idle", ErrCorrupt, i))
			}
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// openBody checks a batch or result header and returns a reader over the
// rest and the flags byte.
func openBody(b []byte, magic string) (*frameReader, byte, error) {
	if len(b) > MaxBatchSize {
		return nil, 0, fmt.Errorf("%w: %d bytes exceeds the %d-byte batch bound", ErrCorrupt, len(b), MaxBatchSize)
	}
	if len(b) < len(magic)+2 {
		return nil, 0, ErrTruncated
	}
	if string(b[:len(magic)]) != magic {
		return nil, 0, fmt.Errorf("%w: want %q", ErrBadMagic, magic)
	}
	if v := b[len(magic)]; v != BatchVersion {
		return nil, 0, fmt.Errorf("%w: got batch version %d, want %d", ErrVersion, v, BatchVersion)
	}
	flags := b[len(magic)+1]
	if flags&^batchFlagsBit != 0 {
		return nil, 0, fmt.Errorf("%w: unknown flag bits %#x", ErrCorrupt, flags&^batchFlagsBit)
	}
	return &frameReader{b: b[len(magic)+2:]}, flags, nil
}

// length reads an entry count and checks it against the bytes left, at
// least minSize per entry, so the caller can allocate the entries.
func (r *frameReader) length(what string, minSize int) int {
	n := r.count(what)
	if r.err == nil && n > len(r.b)/minSize {
		r.fail(fmt.Errorf("%w: %s %d with %d bytes left", ErrCorrupt, what, n, len(r.b)))
		return 0
	}
	return n
}

// finish reports the latched error or trailing bytes.
func (r *frameReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.b))
	}
	return nil
}

// words is the number of 64-bit words holding n flags.
func words(n int) int { return (n + 63) / 64 }

func appendFlagWords(buf []byte, flags []bool) []byte {
	for w := 0; w < words(len(flags)); w++ {
		var word uint64
		for i, f := range flags[w*64 : min(len(flags), (w+1)*64)] {
			if f {
				word |= 1 << i
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, word)
	}
	return buf
}

// flagWords reads n flags; the caller has checked the bytes are there.
func (r *frameReader) flagWords(n int) []bool {
	flags := make([]bool, n)
	for w := 0; w < words(n); w++ {
		word := binary.LittleEndian.Uint64(r.b)
		r.b = r.b[8:]
		if tail := n - w*64; tail < 64 && word>>tail != 0 {
			r.fail(fmt.Errorf("%w: flag bits set past PE %d", ErrCorrupt, n))
			return flags
		}
		for ; word != 0; word &= word - 1 {
			flags[w*64+bits.TrailingZeros64(word)] = true
		}
	}
	return flags
}
