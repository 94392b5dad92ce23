package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"simdtree/internal/checkpoint"
	msim "simdtree/internal/metrics"
	"simdtree/internal/search"
	"simdtree/internal/server"
	"simdtree/internal/simd"
	"simdtree/internal/steal"
	"simdtree/internal/synthetic"
	"simdtree/internal/topology"
	"simdtree/internal/wire"
)

// stealPinned is the whole job's schedule on the trees of the default
// seed's first minReps repetitions.
var stealPinned = map[string]fingerprint{
	"GP-DK/1":          {400000, 467, 117, 21653},
	"GP-DK/4294967297": {400000, 469, 121, 20145},
	"GP-DK/8589934593": {400000, 465, 118, 21560},
}

// errDonated stops the donor's run at the donation cycle.
var errDonated = errors.New("donated")

// stealRep is one repetition of steal-2node.
type stealRep struct {
	setup      time.Duration // instance, baseline, donation checkpoint, session open
	baseline   time.Duration
	ckptBytes  int
	sink       time.Duration // encoding the donation checkpoint
	dist       time.Duration // the distributed run
	local      time.Duration // the same job resumed in this process
	donorW     int64         // nodes expanded before the donation
	donorCycle int
	stats      msim.Stats
}

// stealPhase is the untraced or traced half of a steal-2node run.
type stealPhase struct {
	reps    []stealRep
	tally   tally
	tr      *tracer
	runSpan int // the current distributed run's span when traced
	clock   expandClock
	wire    *countingTransport

	gcCycles, allocBytes uint64
}

// repRates returns each repetition's nodes expanded after the donation
// per second of the distributed run.
func (p *stealPhase) repRates() []float64 {
	var xs []float64
	for _, r := range p.reps {
		xs = append(xs, float64(r.stats.W-r.donorW)/r.dist.Seconds())
	}
	return xs
}

func (p *stealPhase) nodesPerSecond() float64 { return median(p.repRates()) }

// stealJob is the job both nodes and the local run execute.
type stealJob struct {
	spec  server.JobSpec // canonical
	extra []byte         // the spec as JSON, carried in the checkpoint meta
	tree  *synthetic.Tree
	base  search.Result
}

// stealTreeSeed is the tree repetition rep of a run searches.  Each
// repetition takes a new tree: the trees' RPC counts differ by up to 20%,
// so one tree per run would make the seed move nodes_per_s, while a new
// tree each time lets every run measure a mix.
func stealTreeSeed(e *env, rep int) uint64 { return e.seed + uint64(rep)<<32 }

func newStealJob(e *env, rep int) (stealJob, error) {
	w, p := int64(400_000), 1024
	if e.tiny {
		w, p = 20_000, 64
	}
	domains := map[string]bool{}
	for _, d := range server.BuiltinDomains() {
		domains[d] = true
	}
	spec, err := server.Canonicalize(server.JobSpec{
		Domain: "synthetic", Scheme: "GP-DK", P: p,
		Synthetic: &server.SyntheticSpec{W: w, Seed: stealTreeSeed(e, rep)},
	}, domains)
	if err != nil {
		return stealJob{}, err
	}
	extra, err := json.Marshal(spec)
	if err != nil {
		return stealJob{}, err
	}
	tree := synthetic.New(spec.Synthetic.W, spec.Synthetic.Seed)
	return stealJob{spec: spec, extra: extra, tree: tree}, nil
}

// donate runs the job in this process until cycle donateAt and returns
// the encoded checkpoint its checkpoint sink took there, and the time the
// sink took.
func (j stealJob) donate(ctx context.Context, donateAt int) ([]byte, time.Duration, error) {
	sch, err := simd.ParseScheme[synthetic.Node](j.spec.Scheme)
	if err != nil {
		return nil, 0, err
	}
	m, err := simd.NewMachine[synthetic.Node](j.tree, sch, simd.Options{P: j.spec.P, Workers: workers(), CheckpointEvery: donateAt})
	if err != nil {
		return nil, 0, err
	}
	meta := checkpoint.Meta{Domain: j.spec.Domain, Scheme: j.spec.Scheme, Topology: j.spec.Topology, Extra: j.extra}
	var ckpt []byte
	var sink time.Duration
	m.OnCheckpoint(func(s *simd.Snapshot[synthetic.Node]) error {
		start := time.Now()
		defer func() { sink = time.Since(start) }()
		var err error
		if ckpt, err = checkpoint.Encode[synthetic.Node](wire.SyntheticCodec{}, meta, s); err != nil {
			return err
		}
		return errDonated
	})
	if _, err := m.RunContext(ctx); !errors.Is(err, errDonated) {
		return nil, 0, fmt.Errorf("donor run ended before cycle %d: %v", donateAt, err)
	}
	return ckpt, sink, nil
}

// resumeLocal finishes the donated job in this process.
func (j stealJob) resumeLocal(ctx context.Context, ckpt []byte, dom search.Domain[synthetic.Node]) (msim.Stats, time.Duration, error) {
	_, snap, err := checkpoint.Decode[synthetic.Node](wire.SyntheticCodec{}, ckpt)
	if err != nil {
		return msim.Stats{}, 0, err
	}
	sch, err := simd.ParseScheme[synthetic.Node](j.spec.Scheme)
	if err != nil {
		return msim.Stats{}, 0, err
	}
	m, err := simd.NewMachine[synthetic.Node](dom, sch, simd.Options{P: j.spec.P, Workers: workers()})
	if err != nil {
		return msim.Stats{}, 0, err
	}
	if err := m.RestoreSnapshot(snap); err != nil {
		return msim.Stats{}, 0, err
	}
	start := time.Now()
	st, err := m.RunContext(ctx)
	return st, time.Since(start), err
}

// checkSteal checks a distributed run against the local run of the same
// checkpoint (the stats must be byte-identical) and against the serial
// baseline and pinned fingerprint via checkSearch.
func checkSteal(key string, dist, local msim.Stats, base search.Result, pinned, seen map[string]fingerprint) error {
	db, err := json.Marshal(dist)
	if err != nil {
		return err
	}
	lb, err := json.Marshal(local)
	if err != nil {
		return err
	}
	if string(db) != string(lb) {
		return fmt.Errorf("distributed stats %s differ from the local run's %s", db, lb)
	}
	return checkSearch(key, dist, base, pinned, seen)
}

func runSteal(ctx context.Context, e *env) (outcome, error) {
	var nodes [2]*serveNode
	var err error
	for i := range nodes {
		svc, serr := server.New(server.Config{Workers: 1, SimWorkers: workers(), DrainTimeout: 5 * time.Second})
		if serr != nil {
			err = serr
			break
		}
		if nodes[i], err = listen(svc, svc.Handler()); err != nil {
			break
		}
	}
	defer func() {
		for _, n := range nodes {
			if n != nil {
				if serr := n.stop(); serr != nil {
					fmt.Fprintln(e.log, "perfbench: stopping a node:", serr)
				}
			}
		}
	}()
	if err != nil {
		return outcome{}, err
	}
	bases := []string{nodes[0].base, nodes[1].base}

	seen := map[string]fingerprint{}
	runPhase := func(traced bool, d time.Duration) (*stealPhase, error) {
		p := &stealPhase{}
		if traced {
			p.tr = newTracer()
		}
		gc0, alloc0 := runtimeSample()
		err := stealPhaseRun(ctx, e, p, bases, seen, d)
		gc1, alloc1 := runtimeSample()
		p.gcCycles, p.allocBytes = gc1-gc0, alloc1-alloc0
		return p, err
	}
	m := metrics{}
	if !e.traced {
		p, err := runPhase(false, e.seconds)
		if err != nil {
			return outcome{}, err
		}
		stealEndToEnd(e.out, p, m)
		return outcome{tally: p.tally, metrics: m}, nil
	}
	un, err := runPhase(false, e.seconds/2)
	if err != nil {
		return outcome{}, err
	}
	tr, err := runPhase(true, e.seconds/2)
	if err != nil {
		return outcome{}, err
	}
	if err := tr.tr.writeFile(spansPath(e, "steal")); err != nil {
		return outcome{}, err
	}
	stealLayers(un, tr, m)
	t := un.tally
	t.add(tr.tally)
	return outcome{tally: t, metrics: m}, nil
}

// stealPhaseRun repeats the donation, the distributed run over two node
// sessions and the local run of the same checkpoint until d has passed.
func stealPhaseRun(ctx context.Context, e *env, p *stealPhase, bases []string, seen map[string]fingerprint, d time.Duration) error {
	const donateAt = 8
	p.wire = &countingTransport{rt: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	client := &http.Client{Transport: p.wire, Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(d)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		start := time.Now()
		job, err := newStealJob(e, rep)
		if err != nil {
			return err
		}
		job.base = search.DFS[synthetic.Node](job.tree)
		r := stealRep{baseline: time.Since(start)}
		ckpt, sink, err := job.donate(ctx, donateAt)
		if err != nil {
			return err
		}
		r.sink, r.ckptBytes = sink, len(ckpt)
		meta, raw, err := checkpoint.DecodeRaw(ckpt)
		if err != nil {
			return err
		}
		r.donorW, r.donorCycle = raw.Stats.W, raw.Cycle
		sessions := make([]*steal.HTTPShard, 0, len(bases))
		shards := make([]steal.Shard, 0, len(bases))
		for i, base := range bases {
			lo, hi := i*job.spec.P/len(bases), (i+1)*job.spec.P/len(bases)
			sh, err := steal.OpenHTTPShard(ctx, client, base, ckpt, lo, hi, false)
			if err != nil {
				return errors.Join(err, closeSessions(ctx, sessions))
			}
			sessions = append(sessions, sh)
			if p.tr != nil {
				shards = append(shards, &timedShard{sh: sh, tr: p.tr, parent: &p.runSpan})
			} else {
				shards = append(shards, sh)
			}
		}
		parts, err := simd.ParseSchemeParts(job.spec.Scheme)
		if err != nil {
			return errors.Join(err, closeSessions(ctx, sessions))
		}
		topo, err := topology.ByName(job.spec.Topology)
		if err != nil {
			return errors.Join(err, closeSessions(ctx, sessions))
		}
		drv, err := steal.NewDriver(steal.Config{
			Key: server.CacheKey(job.spec), Meta: meta, Scheme: parts, Costs: simd.CM2Costs(),
			Topology: topo, P: job.spec.P,
		}, raw, shards)
		if err != nil {
			return errors.Join(err, closeSessions(ctx, sessions))
		}
		r.setup = time.Since(start)

		if p.tr != nil {
			p.runSpan = p.tr.begin("steal.run", -1)
		}
		distStart := time.Now()
		res, runErr := drv.Run(ctx)
		r.dist = time.Since(distStart)
		if p.tr != nil {
			p.tr.end(p.runSpan)
		}
		if err := closeSessions(ctx, sessions); err != nil {
			return err
		}
		r.stats = res.Stats

		var dom search.Domain[synthetic.Node] = job.tree
		if p.tr != nil {
			dom = timeDomain(dom, &p.clock)
		}
		local, localWall, err := job.resumeLocal(ctx, ckpt, dom)
		r.local = localWall
		if err != nil {
			return err
		}
		var pinned map[string]fingerprint
		if !e.tiny && e.seed == defaultSeed && rep < minReps {
			pinned = stealPinned
		}
		if runErr == nil {
			runErr = checkSteal(fmt.Sprintf("%s/%d", job.spec.Scheme, job.spec.Synthetic.Seed), res.Stats, local, job.base, pinned, seen)
		}
		p.tally.record(runErr)
		p.reps = append(p.reps, r)
	}
	return nil
}

func closeSessions(ctx context.Context, sessions []*steal.HTTPShard) error {
	var err error
	for _, s := range sessions {
		err = errors.Join(err, s.Close(ctx, false))
	}
	return err
}

func stealEndToEnd(w io.Writer, p *stealPhase, m metrics) {
	printSpread(w, "nodes_per_s", p.repRates())
	var jobs, setups []float64
	var wall time.Duration
	for _, r := range p.reps {
		jobs = append(jobs, ms(r.dist))
		setups = append(setups, r.setup.Seconds())
		wall += r.dist
	}
	m.set("nodes_per_s", p.nodesPerSecond(), "1/s")
	m.set("efficiency", p.reps[0].stats.Efficiency(), "ratio")
	m.set("job_p50_ms", quantile(jobs, 0.50), "ms")
	m.set("job_p99_ms", tailQuantile(jobs), "ms")
	m.set("capacity_jobs_per_s", float64(len(p.reps))/wall.Seconds(), "1/s")
	m.set("setup_s", median(setups), "s")
	m.set("max_rss_bytes", maxRSSBytes(), "bytes")
}

func stealLayers(un, tr *stealPhase, m metrics) {
	self := tr.tr.selfTimes()
	var cycles, calls float64
	var over, dfs []float64
	for _, r := range tr.reps {
		cycles += float64(r.stats.Cycles - r.donorCycle)
		over = append(over, r.dist.Seconds()/r.local.Seconds())
	}
	for _, r := range append(append([]stealRep{}, un.reps...), tr.reps...) {
		dfs = append(dfs, float64(r.baseline)/float64(r.stats.W))
	}
	for _, op := range []string{"step", "flags", "transfer", "split", "absorb", "export", "merge", "status"} {
		calls += float64(tr.tr.count("steal." + op))
	}
	for _, op := range []string{"step", "flags", "transfer", "split", "absorb"} {
		if n := tr.tr.count("steal." + op); n > 0 {
			m.set("steal."+op+"_us", float64(self["steal."+op])/float64(time.Microsecond)/float64(n), "us")
		}
	}
	m.set("steal.rpcs_per_cycle", calls/cycles, "count")
	m.set("steal.bytes_per_cycle", float64(tr.wire.sent.Load()+tr.wire.received.Load())/cycles, "bytes")
	m.set("steal.wall_over_local", median(over), "ratio")

	first := tr.reps[0]
	m.set("simd.cycles", float64(first.stats.Cycles), "count")
	m.set("simd.lb_phases", float64(first.stats.LBPhases), "count")
	m.set("simd.transfers", float64(first.stats.Transfers), "count")
	expandCalls, expand := tr.clock.totals()
	m.set("synthetic.expand_ns_per_node", float64(expand)/float64(expandCalls), "ns")
	m.set("synthetic.dfs_ns_per_node", median(dfs), "ns")
	var ckptBytes float64
	var sink time.Duration
	for _, r := range tr.reps {
		ckptBytes += float64(r.ckptBytes)
		sink += r.sink
	}
	reps := float64(len(tr.reps))
	m.set("checkpoint.count", 1, "count")
	m.set("checkpoint.bytes", ckptBytes/reps, "bytes")
	m.set("checkpoint.sink_s", sink.Seconds()/reps, "s")
	var unNodes int64
	for _, r := range un.reps {
		unNodes += r.stats.W
	}
	m.set("runtime.alloc_bytes_per_node", float64(un.allocBytes)/float64(unNodes), "bytes")
	m.set("runtime.gc_cycles", float64(un.gcCycles)/float64(len(un.reps)), "count")
	m.set("trace.overhead_share", 1-tr.nodesPerSecond()/un.nodesPerSecond(), "share")
}
