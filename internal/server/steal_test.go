package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"simdtree/internal/checkpoint"
	"simdtree/internal/puzzle"
	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/steal"
	"simdtree/internal/synthetic"
	"simdtree/internal/topology"
	"simdtree/internal/trace"
	"simdtree/internal/wire"
)

// countingTransport counts shard-session requests by their last path
// element (step, flags, round, absorb, ...).
type countingTransport struct {
	mu     sync.Mutex
	counts map[string]int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := req.URL.Path[strings.LastIndex(req.URL.Path, "/")+1:]
	c.mu.Lock()
	c.counts[op]++
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// take returns the counts since the last take and resets them.
func (c *countingTransport) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	counts := c.counts
	c.counts = map[string]int{}
	return counts
}

// perPairOnly hides a shard's batch method, so the driver runs it
// through its per-pair adapter.
type perPairOnly struct{ steal.Shard }

// stealNodes is a pair of shard-hosting nodes and the client that drives
// them.
type stealNodes struct {
	bases  [2]string
	wire   *countingTransport
	client *http.Client
}

func newStealNodes(t *testing.T) *stealNodes {
	t.Helper()
	n := &stealNodes{wire: &countingTransport{counts: map[string]int{}}}
	n.client = &http.Client{Transport: n.wire}
	for i := range n.bases {
		_, ts := testServer(t, Config{Workers: 1})
		n.bases[i] = ts.URL
	}
	return n
}

// stealRun is one distributed run of a donated checkpoint and what it
// cost on the wire.
type stealRun struct {
	res     steal.Result
	donated *checkpoint.RawSnapshot
	rpcs    map[string]int
}

// stealCase runs spec on one machine, donates a checkpoint of cycle k of
// it, finishes it over two HTTP shard sessions (through the per-pair
// adapter when perPair is set), and requires Stats, trace and periodic
// checkpoints byte-identical to the single-machine run.
func stealCase[S any](t *testing.T, n *stealNodes, spec JobSpec, codec wire.Codec[S], newDomain func() search.Domain[S], perPair bool) stealRun {
	t.Helper()
	const every = 16
	domains := map[string]bool{}
	for _, d := range BuiltinDomains() {
		domains[d] = true
	}
	spec, err := Canonicalize(spec, domains)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	meta := checkpoint.Meta{Domain: spec.Domain, Scheme: spec.Scheme, Topology: spec.Topology, Extra: extra}
	topo, err := topology.ByName(spec.Topology)
	if err != nil {
		t.Fatal(err)
	}
	newMachine := func(opts simd.Options) *simd.Machine[S] {
		sch, err := simd.ParseScheme[S](spec.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		opts.P, opts.Costs, opts.Topology = spec.P, simd.CM2Costs(), topo
		m, err := simd.NewMachine[S](newDomain(), sch, opts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	refTr := &trace.Trace{}
	refCkpts := map[int][]byte{}
	m := newMachine(simd.Options{Trace: refTr, CheckpointEvery: every})
	m.OnCheckpoint(func(s *simd.Snapshot[S]) error {
		b, err := checkpoint.Encode[S](codec, meta, s)
		refCkpts[s.Cycle] = b
		return err
	})
	ref, err := m.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Donate cycle k of a fresh run.
	k := max(1, ref.Cycles/4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	im := newMachine(simd.Options{Trace: &trace.Trace{}, ProgressEvery: 1, Progress: func(pi simd.ProgressInfo) {
		if pi.Cycles >= k {
			cancel()
		}
	}})
	if _, err := im.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt at cycle %d: %v", k, err)
	}
	snap, err := im.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	donated, err := checkpoint.Encode[S](codec, meta, snap)
	if err != nil {
		t.Fatal(err)
	}
	dmeta, raw, err := checkpoint.DecodeRaw(donated)
	if err != nil {
		t.Fatal(err)
	}

	var sessions []*steal.HTTPShard
	var shards []steal.Shard
	defer func() {
		for _, sh := range sessions {
			if err := sh.Close(context.Background(), false); err != nil {
				t.Error(err)
			}
		}
	}()
	for i, base := range n.bases {
		lo, hi := i*spec.P/len(n.bases), (i+1)*spec.P/len(n.bases)
		sh, err := steal.OpenHTTPShard(context.Background(), n.client, base, donated, lo, hi, false)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sh)
		if perPair {
			shards = append(shards, perPairOnly{sh})
		} else {
			shards = append(shards, sh)
		}
	}
	parts, err := simd.ParseSchemeParts(spec.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	gotCkpts := map[int][]byte{}
	d, err := steal.NewDriver(steal.Config{
		Key: CacheKey(spec), Meta: dmeta, Scheme: parts, Costs: simd.CM2Costs(), Topology: topo, P: spec.P,
		CheckpointEvery: every,
		OnCheckpoint: func(_ context.Context, b []byte) error {
			_, rs, err := checkpoint.DecodeRaw(b)
			if err != nil {
				return err
			}
			gotCkpts[rs.Cycle] = b
			return nil
		},
	}, raw, shards)
	if err != nil {
		t.Fatal(err)
	}
	n.wire.take()
	res, err := d.Run(context.Background())
	rpcs := n.wire.take()
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}

	if res.Stats != ref {
		t.Errorf("distributed stats differ\n got %+v\nwant %+v", res.Stats, ref)
	}
	if !reflect.DeepEqual(res.Trace.Samples, refTr.Samples) || !reflect.DeepEqual(res.Trace.Events, refTr.Events) {
		t.Errorf("distributed trace differs (samples %d/%d, events %d/%d)",
			len(res.Trace.Samples), len(refTr.Samples), len(res.Trace.Events), len(refTr.Events))
	}
	if len(gotCkpts) == 0 {
		t.Error("distributed run emitted no periodic checkpoints")
	}
	for c, b := range gotCkpts {
		if !bytes.Equal(b, refCkpts[c]) {
			t.Errorf("checkpoint at cycle %d differs from the single-machine bytes", c)
		}
	}
	return stealRun{res: res, donated: raw, rpcs: rpcs}
}

// stealCases runs every Table 1 scheme on a synthetic tree and a
// 15-puzzle instance (W = 4049 at its final bound) through f.
func stealCases(t *testing.T, f func(t *testing.T, run func(n *stealNodes, perPair bool) stealRun)) {
	for _, label := range simd.Table1Labels(0.85) {
		t.Run("synthetic/"+label, func(t *testing.T) {
			spec := JobSpec{Domain: "synthetic", Scheme: label, P: 32, Synthetic: &SyntheticSpec{W: 4000, Seed: 3}}
			f(t, func(n *stealNodes, perPair bool) stealRun {
				return stealCase[synthetic.Node](t, n, spec, wire.SyntheticCodec{},
					func() search.Domain[synthetic.Node] { return synthetic.New(4000, 3) }, perPair)
			})
		})
		t.Run("puzzle/"+label, func(t *testing.T) {
			spec := JobSpec{Domain: "puzzle", Scheme: label, P: 64, Puzzle: &PuzzleSpec{Seed: 1, Steps: 30}}
			f(t, func(n *stealNodes, perPair bool) stealRun {
				return stealCase[puzzle.Node](t, n, spec, wire.PuzzleCodec{}, func() search.Domain[puzzle.Node] {
					dom := puzzle.NewDomain(puzzle.Scramble(1, 30))
					bound, _ := search.FinalIterationBound(dom)
					return search.NewBounded[puzzle.Node](dom, bound)
				}, perPair)
			})
		})
	}
}

// TestHTTPStealByteIdentity drives every scheme through real node
// sessions twice — over the batch endpoints and through the per-pair
// adapter — and gates the batch path's RPC count: each matching round
// costs a shard at most one round and one absorb call however many pairs
// it matched, and each phase one flags call per shard.
func TestHTTPStealByteIdentity(t *testing.T) {
	n := newStealNodes(t)
	shards := len(n.bases)
	stealCases(t, func(t *testing.T, run func(n *stealNodes, perPair bool) stealRun) {
		batch := run(n, false)
		adapter := run(n, true)
		b, a := batch.res, adapter.res
		b.Trace, a.Trace = nil, nil
		if b != a {
			t.Errorf("batch and per-pair results differ:\n%+v\n%+v", b, a)
		}

		res, rpcs := batch.res, batch.rpcs
		cycles := res.Stats.Cycles - batch.donated.Cycle
		phases := res.Stats.LBPhases - batch.donated.Stats.LBPhases
		pairs := res.Donations + res.LocalTransfers
		if rpcs["transfer"]+rpcs["split"] != 0 {
			t.Errorf("batch path made per-pair calls: %v", rpcs)
		}
		if rpcs["flags"] != phases*shards {
			t.Errorf("%d flags calls for %d phases on %d shards, want one per phase per shard", rpcs["flags"], phases, shards)
		}
		if rpcs["round"] > res.Rounds*shards || rpcs["absorb"] > res.Rounds*shards {
			t.Errorf("%d round and %d absorb calls for %d rounds on %d shards, want at most one of each per round per shard",
				rpcs["round"], rpcs["absorb"], res.Rounds, shards)
		}
		total := func(counts map[string]int) int {
			sum := 0
			for _, c := range counts {
				sum += c
			}
			return sum
		}
		t.Logf("%d cycles, %d phases, %d rounds, %d pairs moved work: RPCs per cycle %.2f batched, %.2f per pair",
			cycles, phases, res.Rounds, pairs,
			float64(total(rpcs))/float64(cycles), float64(total(adapter.rpcs))/float64(cycles))
	})
}

// TestStealFrameMetricsCountFrames pins that the node's frame counters
// count frames, not batches: after a distributed run, the frames split
// and absorbed across both nodes each equal the run's donations.
func TestStealFrameMetricsCountFrames(t *testing.T) {
	n := newStealNodes(t)
	spec := JobSpec{Domain: "synthetic", Scheme: "GP-DK", P: 32, Synthetic: &SyntheticSpec{W: 4000, Seed: 3}}
	run := stealCase[synthetic.Node](t, n, spec, wire.SyntheticCodec{},
		func() search.Domain[synthetic.Node] { return synthetic.New(4000, 3) }, false)
	if run.res.Donations == 0 {
		t.Fatal("the run shipped no donation frames")
	}
	if run.rpcs["absorb"] >= run.res.Donations {
		t.Errorf("%d absorb calls for %d donations: the run did not batch frames", run.rpcs["absorb"], run.res.Donations)
	}
	var split, absorbed int64
	for _, base := range n.bases {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var m metricsResponse
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		split += m.StealFramesSplit
		absorbed += m.StealFramesAbsorbed
	}
	if split != int64(run.res.Donations) || absorbed != int64(run.res.Donations) {
		t.Errorf("nodes counted %d frames split and %d absorbed, want %d each", split, absorbed, run.res.Donations)
	}
}

// TestStealBatchEndpointsRefuseBadBatches pins the node side of the
// round protocol: a malformed body, a batch sent to the wrong endpoint
// and a batch with one invalid pair are each a 400 that leaves the
// shard unchanged.
func TestStealBatchEndpointsRefuseBadBatches(t *testing.T) {
	n := newStealNodes(t)
	spec, err := Canonicalize(JobSpec{Domain: "synthetic", Scheme: "GP-DK", P: 32, Synthetic: &SyntheticSpec{W: 4000, Seed: 3}},
		map[string]bool{"synthetic": true})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := simd.ParseScheme[synthetic.Node](spec.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	m, err := simd.NewMachine[synthetic.Node](synthetic.New(4000, 3), sch, simd.Options{P: spec.P, CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	var donated []byte
	stop := errors.New("donated")
	m.OnCheckpoint(func(s *simd.Snapshot[synthetic.Node]) error {
		meta := checkpoint.Meta{Domain: spec.Domain, Scheme: spec.Scheme, Topology: spec.Topology, Extra: extra}
		if donated, err = checkpoint.Encode[synthetic.Node](wire.SyntheticCodec{}, meta, s); err != nil {
			return err
		}
		return stop
	})
	if _, err := m.RunContext(context.Background()); !errors.Is(err, stop) {
		t.Fatalf("donor run: %v", err)
	}
	ctx := context.Background()
	sh, err := steal.OpenHTTPShard(ctx, n.client, n.bases[0], donated, 0, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sh.Close(ctx, false); err != nil {
			t.Error(err)
		}
	}()
	busy, idle, err := sh.Flags(ctx)
	if err != nil {
		t.Fatal(err)
	}
	donor, receiver := -1, -1
	for pe := range busy {
		if busy[pe] && donor < 0 {
			donor = pe
		}
		if idle[pe] && receiver < 0 {
			receiver = pe
		}
	}
	if donor < 0 || receiver < 0 {
		t.Fatalf("shard has no donor/receiver pair: busy %v idle %v", busy, idle)
	}
	encode := func(b steal.Batch) []byte {
		body, err := steal.EncodeBatch(&b)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	good := steal.Op{From: donor, To: receiver}
	cases := []struct {
		name, endpoint string
		body           []byte
	}{
		{"garbage", "round", []byte("not a batch")},
		{"ops sent to absorb", "absorb", encode(steal.Batch{Ops: []steal.Op{good}})},
		{"frames sent to round", "round", encode(steal.Batch{Frames: [][]byte{{1}}})},
		{"one self transfer", "round", encode(steal.Batch{Ops: []steal.Op{good, {From: receiver + 1, To: receiver + 1}}})},
		{"receiver named twice", "round", encode(steal.Batch{Ops: []steal.Op{good, {From: donor, To: receiver}}})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before, _, err := sh.Export(ctx)
			if err != nil {
				t.Fatal(err)
			}
			u := sh.Base() + "/v1/steal/sessions/" + sh.Session() + "/" + tc.endpoint
			resp, err := n.client.Post(u, steal.BatchContentType, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %d, want 400", resp.StatusCode)
			}
			after, _, err := sh.Export(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(before, after) {
				t.Error("a refused batch changed the shard")
			}
		})
	}
	if moved, err := sh.Transfer(ctx, donor, receiver); err != nil || moved == 0 {
		t.Errorf("the well-formed transfer moved %d nodes (%v)", moved, err)
	}
}
