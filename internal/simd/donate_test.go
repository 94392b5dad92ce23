package simd

import (
	"errors"
	"testing"

	"simdtree/internal/stack"
	"simdtree/internal/synthetic"
)

// TestTransferSurfaceRejects pins the classified errors of the
// cycle-boundary transfer surface: a transfer or donation onto the donor
// itself and a transfer or absorb into a PE holding work are refused
// before anything moves, while a well-formed transfer still succeeds.
func TestTransferSurfaceRejects(t *testing.T) {
	// newMachine returns a P=4 machine whose PE 0 is splittable and whose
	// other PEs are empty.
	newMachine := func(t *testing.T) *Machine[synthetic.Node] {
		t.Helper()
		sch, err := ParseScheme[synthetic.Node]("GP-DK")
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine[synthetic.Node](synthetic.New(4000, 3), sch, Options{P: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; !m.Arena().Splittable(0); i++ {
			if i == 10 {
				t.Fatal("PE 0 never became splittable")
			}
			m.StepCycle()
		}
		return m
	}
	busyStack := func() *stack.Stack[synthetic.Node] {
		s := stack.New[synthetic.Node]()
		s.PushLevel([]synthetic.Node{{}})
		return s
	}

	cases := []struct {
		name string
		// setup prepares the machine beyond newMachine's state.
		setup func(m *Machine[synthetic.Node]) error
		op    func(m *Machine[synthetic.Node]) (int, error)
		want  error // nil: the op must succeed and move work
	}{
		{
			name: "transfer to an idle PE",
			op:   func(m *Machine[synthetic.Node]) (int, error) { return m.TransferLocal(0, 1) },
		},
		{
			name: "transfer onto the donor",
			op:   func(m *Machine[synthetic.Node]) (int, error) { return m.TransferLocal(0, 0) },
			want: ErrSelfTransfer,
		},
		{
			name:  "transfer into a busy PE",
			setup: func(m *Machine[synthetic.Node]) error { return m.InstallStack(2, busyStack()) },
			op:    func(m *Machine[synthetic.Node]) (int, error) { return m.TransferLocal(0, 2) },
			want:  ErrReceiverBusy,
		},
		{
			name: "donation addressed to the donor",
			op: func(m *Machine[synthetic.Node]) (int, error) {
				d, err := m.Donate(7, 0, 0)
				if d.Stack != nil {
					return d.Stack.Size(), err
				}
				return 0, err
			},
			want: ErrSelfTransfer,
		},
		{
			name:  "absorb into a busy PE",
			setup: func(m *Machine[synthetic.Node]) error { return m.InstallStack(3, busyStack()) },
			op: func(m *Machine[synthetic.Node]) (int, error) {
				return m.Absorb(Donation[synthetic.Node]{ID: 1, From: 9, To: 3, Stack: busyStack()})
			},
			want: ErrReceiverBusy,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(t)
			if tc.setup != nil {
				if err := tc.setup(m); err != nil {
					t.Fatal(err)
				}
			}
			before := make([]int, 4)
			for pe := range before {
				before[pe] = m.Arena().Size(pe)
			}
			moved, err := tc.op(m)
			if tc.want == nil {
				if err != nil || moved == 0 {
					t.Fatalf("got moved=%d err=%v, want a transfer that moves work", moved, err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got moved=%d err=%v, want %v", moved, err, tc.want)
			}
			if moved != 0 {
				t.Errorf("rejected op reported %d nodes moved", moved)
			}
			for pe, n := range before {
				if got := m.Arena().Size(pe); got != n {
					t.Errorf("rejected op changed PE %d from %d to %d nodes", pe, n, got)
				}
			}
		})
	}
}
