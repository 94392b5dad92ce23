package steal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"simdtree/internal/simd"
	"simdtree/internal/stack"
	"simdtree/internal/synthetic"
	"simdtree/internal/wire"
)

func validBatches() []*Batch {
	frame, err := EncodeFrame(validFrame())
	if err != nil {
		panic(err)
	}
	return []*Batch{
		{},
		{WantFlags: true},
		{Ops: []Op{{From: 3, To: 9}, {Split: true, Donation: 1 << 40, From: 4, To: 1000}, {From: 0, To: 1}}},
		{Frames: [][]byte{frame, {1}}, WantFlags: true},
	}
}

func validResults() []*BatchResult {
	flags := func(n int, set func(i int) bool) []bool {
		f := make([]bool, n)
		for i := range f {
			f[i] = set(i)
		}
		return f
	}
	return []*BatchResult{
		{},
		{Moved: []int{0, 5, 300}, Stacks: [][]byte{nil, {1, 2, 3}, nil}},
		{Absorbed: []int{1, 1 << 20}},
		// 70 PEs: two words, the second partial.
		{Busy: flags(70, func(i int) bool { return i%3 == 0 }), Idle: flags(70, func(i int) bool { return i%3 == 1 })},
		{Moved: []int{2}, Stacks: [][]byte{{9}}, Busy: []bool{}, Idle: []bool{}},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	for _, b := range validBatches() {
		enc, err := EncodeBatch(b)
		if err != nil {
			t.Fatalf("encode %+v: %v", b, err)
		}
		got, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("decode %+v: %v", b, err)
		}
		if len(got.Ops) != len(b.Ops) || len(got.Frames) != len(b.Frames) || got.WantFlags != b.WantFlags ||
			(len(b.Ops) > 0 && !reflect.DeepEqual(got.Ops, b.Ops)) || (len(b.Frames) > 0 && !reflect.DeepEqual(got.Frames, b.Frames)) {
			t.Errorf("round trip changed the batch:\n got %+v\nwant %+v", got, b)
		}
	}
	for _, r := range validResults() {
		enc, err := EncodeBatchResult(r)
		if err != nil {
			t.Fatalf("encode %+v: %v", r, err)
		}
		got, err := DecodeBatchResult(enc)
		if err != nil {
			t.Fatalf("decode %+v: %v", r, err)
		}
		again, err := EncodeBatchResult(got)
		if err != nil || !bytes.Equal(again, enc) {
			t.Errorf("result round trip not canonical (%v):\n in  %x\n out %x", err, enc, again)
		}
		if (r.Busy != nil) != (got.Busy != nil) || !reflect.DeepEqual(r.Busy, got.Busy) && len(r.Busy) > 0 ||
			!reflect.DeepEqual(r.Idle, got.Idle) && len(r.Idle) > 0 {
			t.Errorf("flags changed:\n got %v %v\nwant %v %v", got.Busy, got.Idle, r.Busy, r.Idle)
		}
	}
}

func TestBatchDecodeRejects(t *testing.T) {
	round, err := EncodeBatch(&Batch{Ops: []Op{{From: 3, To: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	absorb, err := EncodeBatch(&Batch{Frames: [][]byte{{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	result, err := EncodeBatchResult(&BatchResult{Busy: make([]bool, 3), Idle: make([]bool, 3)})
	if err != nil {
		t.Fatal(err)
	}
	header := len(batchMagic) + 2
	with := func(b []byte, i int, v byte) []byte {
		c := append([]byte(nil), b...)
		c[i] = v
		return c
	}
	cases := []struct {
		name   string
		b      []byte
		result bool // decode as a batch result
		want   error
	}{
		{"empty", nil, false, ErrTruncated},
		{"bad magic", with(round, 0, 'X'), false, ErrBadMagic},
		{"result magic on a batch", result, false, ErrBadMagic},
		{"bad version", with(round, len(batchMagic), 2), false, ErrVersion},
		{"unknown flag bits", with(round, len(batchMagic)+1, 2), false, ErrCorrupt},
		{"unknown op kind", with(round, header+1, 7), false, ErrCorrupt},
		{"op count past the bytes", with(round, header, 100), false, ErrCorrupt},
		{"non-minimal varint", append(append(append([]byte(nil), round[:header]...), 0x81, 0x00), round[header+1:]...), false, ErrCorrupt},
		{"missing frame count", round[:len(round)-1], false, ErrTruncated},
		{"truncated op", round[:len(round)-2], false, ErrCorrupt},
		{"trailing bytes", append(append([]byte(nil), round...), 0), false, ErrCorrupt},
		{"empty frame", append(append([]byte(nil), absorb[:header+1]...), 1, 0), false, ErrCorrupt},
		{"oversized", make([]byte, MaxBatchSize+1), false, ErrCorrupt},
		{"flag bits past the PE count", with(result, len(result)-9, 0x80), true, ErrCorrupt},
		{"busy and idle overlap", with(with(result, len(result)-16, 1), len(result)-8, 1), true, ErrCorrupt},
		{"truncated flags", result[:len(result)-1], true, ErrTruncated},
		{"stack on an op that moved nothing", []byte("SSRR\x01\x00\x01\x00\x01\x07\x00"), true, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.result {
				_, err = DecodeBatchResult(tc.b)
			} else {
				_, err = DecodeBatch(tc.b)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// testHost returns a host for PEs [0, 4) of an 8-PE synthetic machine in
// which PE 0 can donate, PE 1 holds work and PEs 2 and 3 are idle.
func testHost(t *testing.T) Host {
	t.Helper()
	const label = "GP-DK"
	sch, err := simd.ParseScheme[synthetic.Node](label)
	if err != nil {
		t.Fatal(err)
	}
	m, err := simd.NewMachine[synthetic.Node](synthetic.New(4000, 3), sch, simd.Options{P: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !m.Arena().Splittable(0); i++ {
		if i == 10 {
			t.Fatal("PE 0 never became splittable")
		}
		m.StepCycle()
	}
	if _, err := m.TransferLocal(0, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; !m.Arena().Splittable(0); i++ {
		if i == 10 {
			t.Fatal("PE 0 never became splittable again")
		}
		m.StepCycle()
	}
	stacks := make([][]byte, 4)
	for pe := range stacks {
		stacks[pe] = wire.EncodeArena[synthetic.Node](wire.SyntheticCodec{}, m.Arena(), pe)
	}
	h, err := NewHost[synthetic.Node](synthetic.New(4000, 3), wire.SyntheticCodec{}, label, simd.Options{P: 8}, 0, 4, stacks, nil)
	if err != nil {
		t.Fatal(err)
	}
	if busy, idle := h.Flags(); !busy[0] || idle[1] || !idle[2] || !idle[3] {
		t.Fatalf("unexpected shard state: busy %v idle %v", busy, idle)
	}
	return h
}

// TestHostApplyIsAllOrNothing pins the node's batch validation: a batch
// with one bad entry anywhere is refused with ErrBadBatch before any of
// it applies, so the shard's stacks are unchanged.
func TestHostApplyIsAllOrNothing(t *testing.T) {
	frame := func(id uint64, from, to int) []byte {
		s := stack.New[synthetic.Node]()
		s.PushLevel([]synthetic.Node{{}})
		b, err := EncodeFrame(&Frame{Codec: "synthetic", Donation: id, From: from, To: to, Stack: wire.EncodeStack[synthetic.Node](wire.SyntheticCodec{}, s)})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name  string
		batch Batch
		also  error // a second class the error must carry
	}{
		{"transfer onto its donor", Batch{Ops: []Op{{From: 0, To: 2}, {From: 3, To: 3}}}, simd.ErrSelfTransfer},
		{"busy receiver", Batch{Ops: []Op{{From: 0, To: 2}, {From: 3, To: 1}}}, simd.ErrReceiverBusy},
		{"PE named twice", Batch{Ops: []Op{{From: 0, To: 2}, {From: 1, To: 2}}}, nil},
		{"receiver outside the shard", Batch{Ops: []Op{{From: 0, To: 2}, {From: 1, To: 5}}}, nil},
		{"donor outside the shard", Batch{Ops: []Op{{Split: true, From: 6, To: 7}}}, nil},
		{"split to a PE of the shard", Batch{Ops: []Op{{Split: true, From: 0, To: 3}}}, nil},
		{"split past P", Batch{Ops: []Op{{Split: true, From: 0, To: 8}}}, nil},
		{"ops and frames together", Batch{Ops: []Op{{From: 0, To: 2}}, Frames: [][]byte{frame(1, 5, 3)}}, nil},
		{"frame that does not decode", Batch{Frames: [][]byte{frame(1, 5, 2), {1, 2, 3}}}, ErrTruncated},
		{"frame into a busy PE", Batch{Frames: [][]byte{frame(1, 5, 2), frame(2, 6, 1)}}, simd.ErrReceiverBusy},
		{"frame from a PE of the shard", Batch{Frames: [][]byte{frame(1, 5, 2), frame(2, 0, 3)}}, nil},
		{"frames out of donation order", Batch{Frames: [][]byte{frame(2, 5, 2), frame(1, 6, 3)}}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := testHost(t)
			before, _, err := h.Export()
			if err != nil {
				t.Fatal(err)
			}
			_, err = h.Apply(tc.batch)
			if !errors.Is(err, ErrBadBatch) || tc.also != nil && !errors.Is(err, tc.also) {
				t.Fatalf("got %v, want %v (and %v)", err, ErrBadBatch, tc.also)
			}
			after, _, err := h.Export()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(before, after) {
				t.Error("a refused batch changed the shard")
			}
		})
	}

	// The same shapes, well formed, apply in full.
	h := testHost(t)
	res, err := h.Apply(Batch{Ops: []Op{{From: 0, To: 2}, {Split: true, Donation: 4, From: 1, To: 6}}, WantFlags: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved[0] == 0 || res.Stacks[0] != nil || res.Busy == nil || res.Idle[2] {
		t.Errorf("round result %+v: want a transfer into PE 2 and post-round flags", res)
	}
	res, err = h.Apply(Batch{Frames: [][]byte{frame(5, 5, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Absorbed[0] != 1 || res.Busy != nil {
		t.Errorf("absorb result %+v: want one node absorbed and no flags", res)
	}
}
