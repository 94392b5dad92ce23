package steal

import (
	"errors"
	"fmt"

	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/stack"
	"simdtree/internal/wire"
)

// Host is the node-side, codec-erased face of one shard of a distributed
// run: a full-P machine whose PE range [lo, hi) holds the shard's stacks
// while every other PE is empty.  All methods are cycle-boundary
// operations driven by the coordinator; a Host is not safe for concurrent
// use (the server serialises access per session).
type Host interface {
	// Range returns the shard's [lo, hi) global PE range.
	Range() (lo, hi int)
	// Step runs one lock-step expansion cycle and returns its reductions.
	Step() simd.CycleInfo
	// Status returns the cycle-boundary flags without stepping.
	Status() (allEmpty, anyDonor bool)
	// Flags returns the busy (splittable) and idle (empty) flags of the
	// shard's PEs; index i covers global PE lo+i.
	Flags() (busy, idle []bool)
	// Apply validates a whole batch — PEs in range and pairwise
	// disjoint, no transfer onto its donor, idle receivers, frames that
	// decode — and only then applies it in order; a batch it refuses
	// fails with ErrBadBatch and changes nothing.
	Apply(b Batch) (BatchResult, error)
	// Export returns the wire payloads of the shard's [lo, hi) stacks and
	// the domain state (nil for stateless domains).
	Export() (stacks [][]byte, domainState []byte, err error)
	// Merge folds peer shards' domain-state payloads into this shard's
	// domain and returns the merged state.  Checkpoint assembly calls it
	// on shard 0 with the other shards' exports.
	Merge(states [][]byte) ([]byte, error)
}

// host is the generic Host implementation.
type host[S any] struct {
	m     *simd.Machine[S]
	d     search.Domain[S]
	codec wire.Codec[S]
	p     int
	lo    int
	hi    int
	// claimed is Apply's scratch: the shard PEs a batch has named.
	claimed []bool
}

// NewHost builds the shard machine for PE range [lo, hi) of a P-processor
// run: a full-size machine (so global PE indices and splitter semantics
// are identical to the single-machine run) with the given wire-encoded
// stacks installed in the range and every other PE empty.  stacks[i] is
// installed at global PE lo+i; domainState, when non-nil, restores a
// stateful domain.  The machine runs with one worker — a driven shard
// expands sequentially, which by the determinism contract changes nothing
// but wall-clock time.
func NewHost[S any](d search.Domain[S], codec wire.Codec[S], schemeLabel string, opts simd.Options, lo, hi int, stacks [][]byte, domainState []byte) (Host, error) {
	if codec == nil {
		return nil, errors.New("steal: nil codec")
	}
	if lo < 0 || hi > opts.P || lo >= hi {
		return nil, fmt.Errorf("steal: shard range [%d, %d) invalid for P=%d", lo, hi, opts.P)
	}
	if len(stacks) != hi-lo {
		return nil, fmt.Errorf("steal: %d stack payloads for a %d-PE shard", len(stacks), hi-lo)
	}
	sch, err := simd.ParseScheme[S](schemeLabel)
	if err != nil {
		return nil, err
	}
	opts.Workers = 1
	opts.Trace = nil // the coordinator owns the trace ledger
	opts.Progress = nil
	// Spill is node-local: the coordinator's admission already sized the
	// job, and a shard holds only its [lo, hi) slice, so shard machines
	// run unbounded (a budget here would also demand a spill dir per
	// shard for no memory the coordinator hasn't accounted).
	opts.MemBudget = 0
	m, err := simd.NewMachine[S](d, sch, opts)
	if err != nil {
		return nil, err
	}
	// NewMachine seeds the root on PE 0; a shard starts from its installed
	// range only.
	if err := m.InstallStack(0, stack.New[S]()); err != nil {
		return nil, err
	}
	for i, payload := range stacks {
		s, err := wire.DecodeStack(codec, payload)
		if err != nil {
			return nil, fmt.Errorf("steal: stack for PE %d: %w", lo+i, err)
		}
		if err := m.InstallStack(lo+i, s); err != nil {
			return nil, err
		}
	}
	if domainState != nil {
		st, ok := d.(search.Stateful)
		if !ok {
			return nil, errors.New("steal: domain state for a stateless domain")
		}
		if err := st.RestoreState(domainState); err != nil {
			return nil, err
		}
	}
	return &host[S]{m: m, d: d, codec: codec, p: opts.P, lo: lo, hi: hi, claimed: make([]bool, hi-lo)}, nil
}

func (h *host[S]) Range() (int, int) { return h.lo, h.hi }

func (h *host[S]) Step() simd.CycleInfo { return h.m.StepCycle() }

func (h *host[S]) Status() (bool, bool) { return h.m.Status() }

func (h *host[S]) Flags() (busy, idle []bool) {
	n := h.hi - h.lo
	busy = make([]bool, n)
	idle = make([]bool, n)
	a := h.m.Arena()
	for i := 0; i < n; i++ {
		busy[i] = a.Splittable(h.lo + i)
		idle[i] = a.Empty(h.lo + i)
	}
	return busy, idle
}

func (h *host[S]) Apply(b Batch) (BatchResult, error) {
	donations, err := h.validate(b)
	if err != nil {
		return BatchResult{}, err
	}
	res := BatchResult{Moved: make([]int, len(b.Ops)), Stacks: make([][]byte, len(b.Ops)), Absorbed: make([]int, len(donations))}
	// Validation leaves nothing for the machine to refuse: the PEs are
	// disjoint, so each op sees the state validate checked.
	for i, op := range b.Ops {
		if !op.Split {
			if res.Moved[i], err = h.m.TransferLocal(op.From, op.To); err != nil {
				return BatchResult{}, err
			}
			continue
		}
		d, err := h.m.Donate(op.Donation, op.From, op.To)
		if err != nil {
			return BatchResult{}, err
		}
		if n := d.Stack.Size(); n > 0 {
			res.Moved[i], res.Stacks[i] = n, wire.EncodeStack(h.codec, d.Stack)
		}
	}
	for i, d := range donations {
		if res.Absorbed[i], err = h.m.Absorb(d); err != nil {
			return BatchResult{}, err
		}
	}
	if b.WantFlags {
		res.Busy, res.Idle = h.Flags()
	}
	return res, nil
}

// validate checks a whole batch against the shard's state and decodes its
// frames into donations, touching nothing.
func (h *host[S]) validate(b Batch) ([]simd.Donation[S], error) {
	if len(b.Ops) > 0 && len(b.Frames) > 0 {
		return nil, fmt.Errorf("%w: %d ops and %d frames in one batch", ErrBadBatch, len(b.Ops), len(b.Frames))
	}
	clear(h.claimed)
	// claim marks a shard PE the batch names, refusing PEs outside the
	// shard and PEs named twice.
	claim := func(pe int, what string) error {
		if pe < h.lo || pe >= h.hi {
			return fmt.Errorf("%w: %s PE %d outside shard range [%d, %d)", ErrBadBatch, what, pe, h.lo, h.hi)
		}
		if h.claimed[pe-h.lo] {
			return fmt.Errorf("%w: PE %d named twice", ErrBadBatch, pe)
		}
		h.claimed[pe-h.lo] = true
		return nil
	}
	// remote checks a PE that must lie on another shard of the machine.
	remote := func(pe int, what string) error {
		if pe < 0 || pe >= h.p || (pe >= h.lo && pe < h.hi) {
			return fmt.Errorf("%w: %s PE %d is not on another shard of P=%d", ErrBadBatch, what, pe, h.p)
		}
		return nil
	}
	idle := func(pe int) error {
		if !h.m.Arena().Empty(pe) {
			return fmt.Errorf("%w: %w: PE %d", ErrBadBatch, simd.ErrReceiverBusy, pe)
		}
		return nil
	}
	for i, op := range b.Ops {
		if op.From == op.To {
			return nil, fmt.Errorf("%w: op %d: %w: PE %d", ErrBadBatch, i, simd.ErrSelfTransfer, op.From)
		}
		if err := claim(op.From, "donor"); err != nil {
			return nil, err
		}
		if op.Split {
			if err := remote(op.To, "split receiver"); err != nil {
				return nil, err
			}
			continue
		}
		if err := claim(op.To, "receiver"); err != nil {
			return nil, err
		}
		if err := idle(op.To); err != nil {
			return nil, err
		}
	}
	donations := make([]simd.Donation[S], len(b.Frames))
	for i, raw := range b.Frames {
		f, err := DecodeFrame(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: frame %d: %w", ErrBadBatch, i, err)
		}
		if f.Codec != h.codec.Name() {
			return nil, fmt.Errorf("%w: frame %d stack encoded with codec %q, shard uses %q", ErrBadBatch, i, f.Codec, h.codec.Name())
		}
		if i > 0 && f.Donation <= donations[i-1].ID {
			return nil, fmt.Errorf("%w: frame %d donation %d out of order after %d", ErrBadBatch, i, f.Donation, donations[i-1].ID)
		}
		if err := remote(f.From, "frame donor"); err != nil {
			return nil, err
		}
		if err := claim(f.To, "frame receiver"); err != nil {
			return nil, err
		}
		if err := idle(f.To); err != nil {
			return nil, err
		}
		s, err := wire.DecodeStack(h.codec, f.Stack)
		if err != nil {
			return nil, fmt.Errorf("%w: frame %d stack: %w", ErrBadBatch, i, err)
		}
		donations[i] = simd.Donation[S]{ID: f.Donation, From: f.From, To: f.To, Stack: s}
	}
	return donations, nil
}

func (h *host[S]) Export() ([][]byte, []byte, error) {
	stacks := make([][]byte, h.hi-h.lo)
	a := h.m.Arena()
	for i := range stacks {
		stacks[i] = wire.EncodeArena(h.codec, a, h.lo+i)
	}
	var domain []byte
	if st, ok := h.d.(search.Stateful); ok {
		domain = st.SaveState()
	}
	return stacks, domain, nil
}

func (h *host[S]) Merge(states [][]byte) ([]byte, error) {
	st, ok := h.d.(search.StateMerger)
	if !ok {
		return nil, errors.New("steal: domain does not support state merging")
	}
	for i, s := range states {
		if err := st.MergeState(s); err != nil {
			return nil, fmt.Errorf("steal: merging shard state %d: %w", i, err)
		}
	}
	return st.SaveState(), nil
}
