package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/stack"
	"simdtree/internal/steal"
)

// span is one timed call at a layer boundary.  Times are nanoseconds since
// the tracer's epoch; Parent is the index of the enclosing span, -1 for a
// root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory for the traced run.  Spans opened through
// enter/exit nest on one goroutine (the engine's run loop, the steal
// driver); concurrent callers pass their parent explicitly to begin.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	cur   int // innermost open enter span, -1 when none
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), cur: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	//lint:allow hotalloc spans are recorded on traced runs only; the log grows by amortised append
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
}

// enter opens a span nested in the innermost entered one; exit closes it.
// Both run on the goroutine that drives the layer being traced.
func (t *tracer) enter(name string) int {
	t.mu.Lock()
	parent := t.cur
	t.mu.Unlock()
	id := t.begin(name, parent)
	t.mu.Lock()
	t.cur = id
	t.mu.Unlock()
	return id
}

func (t *tracer) exit(id int) {
	t.end(id)
	t.mu.Lock()
	t.cur = t.spans[id].Parent
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its child spans cover.  Children of one span
// never overlap (they run on the parent's goroutine), so subtracting their
// durations is exact.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.End >= 0 {
			self[s.Name] += time.Duration(s.End - s.Start - child[i])
		}
	}
	return self
}

// count returns the number of closed spans named name.
func (t *tracer) count(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			n++
		}
	}
	return n
}

// writeFile writes the spans as JSON lines, one span per line, in the
// order they were opened (a span's index is its line number, from 0).
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// expandClock estimates the time worker goroutines spend inside the
// domain's Expand.  Timing every call would cost more than the synthetic
// domain's Expand itself, so it times every sampleEvery-th call and scales
// the mean up to all calls.  Its counters are striped by the caller's
// expansion buffer, which each engine worker owns, so concurrent workers
// do not contend for one cache line.  The time is summed across workers:
// CPU time, of which the engine-wall share is the sum over the worker
// count.
type expandClock struct {
	stripes [16]clockStripe
}

const sampleEvery = 8

type clockStripe struct {
	calls, sampled, ns atomic.Int64
	_                  [104]byte // one stripe per 128-byte line pair
}

func (c *expandClock) stripe(buf unsafe.Pointer) *clockStripe {
	p := uintptr(buf)
	return &c.stripes[(p>>6^p>>12)%uintptr(len(c.stripes))]
}

// totals returns the Expand calls made and the estimated time they took.
func (c *expandClock) totals() (calls int64, spent time.Duration) {
	var sampled, ns int64
	for i := range c.stripes {
		s := &c.stripes[i]
		calls += s.calls.Load()
		sampled += s.sampled.Load()
		ns += s.ns.Load()
	}
	if sampled == 0 {
		return calls, 0
	}
	return calls, time.Duration(float64(ns) / float64(sampled) * float64(calls))
}

// timedDomain wraps a search.Domain and times a sample of its Expand
// calls.
type timedDomain[S any] struct {
	d search.Domain[S]
	c *expandClock
}

func (d *timedDomain[S]) Root() S       { return d.d.Root() }
func (d *timedDomain[S]) Goal(s S) bool { return d.d.Goal(s) }
func (d *timedDomain[S]) Expand(s S, buf []S) []S {
	st := d.c.stripe(unsafe.Pointer(unsafe.SliceData(buf)))
	if st.calls.Add(1)%sampleEvery != 0 {
		return d.d.Expand(s, buf)
	}
	start := time.Now()
	buf = d.d.Expand(s, buf)
	st.ns.Add(int64(time.Since(start)))
	st.sampled.Add(1)
	return buf
}

// timedStatefulDomain is timedDomain for a search.Stateful domain (the
// IDA* bounded view).  It forwards the state methods, or checkpoints would
// lose the domain state and restores would refuse them.
type timedStatefulDomain[S any] struct {
	timedDomain[S]
	st search.Stateful
}

func (d *timedStatefulDomain[S]) SaveState() []byte           { return d.st.SaveState() }
func (d *timedStatefulDomain[S]) RestoreState(p []byte) error { return d.st.RestoreState(p) }

// timeDomain wraps d so its Expand calls are timed into c.
func timeDomain[S any](d search.Domain[S], c *expandClock) search.Domain[S] {
	td := timedDomain[S]{d: d, c: c}
	if st, ok := d.(search.Stateful); ok {
		return &timedStatefulDomain[S]{timedDomain: td, st: st}
	}
	return &td
}

// timedBalancer records one span per load-balancing phase.  The wrapper
// hides *simd.MatchBalancer from the engine's snapshot code, so a
// checkpoint taken through it would record no GP pointer: use it only on
// runs that take no checkpoint.
type timedBalancer[S any] struct {
	b  simd.Balancer[S]
	tr *tracer
}

func (b *timedBalancer[S]) Name() string { return b.b.Name() }
func (b *timedBalancer[S]) Balance(c *simd.Context[S]) (rounds, transfers int) {
	id := b.tr.enter("simd.balance")
	defer b.tr.exit(id)
	return b.b.Balance(c)
}

// timedSpiller records one span per residency-manager call.
type timedSpiller[S any] struct {
	sp simd.Spiller[S]
	tr *tracer
}

func (s *timedSpiller[S]) Barrier(a *stack.Arena[S]) error {
	id := s.tr.enter("spill.barrier")
	defer s.tr.exit(id)
	return s.sp.Barrier(a)
}

func (s *timedSpiller[S]) Sweep(a *stack.Arena[S]) error {
	id := s.tr.enter("spill.sweep")
	defer s.tr.exit(id)
	return s.sp.Sweep(a)
}

func (s *timedSpiller[S]) FaultAll(a *stack.Arena[S], pe int) error {
	id := s.tr.enter("spill.fault_all")
	defer s.tr.exit(id)
	return s.sp.FaultAll(a, pe)
}

func (s *timedSpiller[S]) Reset() error {
	id := s.tr.enter("spill.reset")
	defer s.tr.exit(id)
	return s.sp.Reset()
}

// timedShard records one span per shard call of a distributed run, under
// the run's span (*parent).  The driver may call different shards at the
// same time, so the spans name their parent instead of nesting.
type timedShard struct {
	sh     steal.Shard
	tr     *tracer
	parent *int
}

func (s *timedShard) Range() (int, int) { return s.sh.Range() }

func (s *timedShard) Step(ctx context.Context) (simd.CycleInfo, error) {
	id := s.tr.begin("steal.step", *s.parent)
	defer s.tr.end(id)
	return s.sh.Step(ctx)
}

func (s *timedShard) Flags(ctx context.Context) ([]bool, []bool, error) {
	id := s.tr.begin("steal.flags", *s.parent)
	defer s.tr.end(id)
	return s.sh.Flags(ctx)
}

func (s *timedShard) Transfer(ctx context.Context, from, to int) (int, error) {
	id := s.tr.begin("steal.transfer", *s.parent)
	defer s.tr.end(id)
	return s.sh.Transfer(ctx, from, to)
}

func (s *timedShard) Split(ctx context.Context, fid uint64, from, to int) ([]byte, int, error) {
	id := s.tr.begin("steal.split", *s.parent)
	defer s.tr.end(id)
	return s.sh.Split(ctx, fid, from, to)
}

func (s *timedShard) Absorb(ctx context.Context, frame []byte) (int, error) {
	id := s.tr.begin("steal.absorb", *s.parent)
	defer s.tr.end(id)
	return s.sh.Absorb(ctx, frame)
}

func (s *timedShard) Export(ctx context.Context) ([][]byte, []byte, error) {
	id := s.tr.begin("steal.export", *s.parent)
	defer s.tr.end(id)
	return s.sh.Export(ctx)
}

func (s *timedShard) Merge(ctx context.Context, states [][]byte) ([]byte, error) {
	id := s.tr.begin("steal.merge", *s.parent)
	defer s.tr.end(id)
	return s.sh.Merge(ctx, states)
}

func (s *timedShard) Status(ctx context.Context) (bool, bool, error) {
	id := s.tr.begin("steal.status", *s.parent)
	defer s.tr.end(id)
	return s.sh.Status(ctx)
}

// countingTransport counts the request and response body bytes that cross
// an http.RoundTripper.
type countingTransport struct {
	rt       http.RoundTripper
	sent     atomic.Int64
	received atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		c.sent.Add(r.ContentLength)
	}
	resp, err := c.rt.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.received}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
