package main

import (
	"context"
	"fmt"
	"io"
	rtmetrics "runtime/metrics"
	"time"

	msim "simdtree/internal/metrics"
	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/spill"
	"simdtree/internal/synthetic"
)

// minReps is the fewest repetitions a run makes, however short, so that
// set-up is always timed several times and reported as a median.
const minReps = 3

// fingerprint is the part of a schedule the benchmark pins: any change to
// it means the engine ran a different schedule.
type fingerprint struct {
	W         int64
	Cycles    int
	LBPhases  int
	Transfers int
}

func fingerprintOf(st msim.Stats) fingerprint {
	return fingerprint{W: st.W, Cycles: st.Cycles, LBPhases: st.LBPhases, Transfers: st.Transfers}
}

// checkSearch checks one engine search against the serial baseline of the
// same problem, against the fingerprint pinned for the default seed (when
// pinned is non-nil), and against the first search of the same key in
// this process (seen), which the traced and untraced phases share.
func checkSearch(key string, st msim.Stats, base search.Result, pinned map[string]fingerprint, seen map[string]fingerprint) error {
	if st.W != base.Expanded || st.Goals != base.Goals {
		return fmt.Errorf("%s: engine expanded %d nodes and found %d goals, serial DFS %d and %d",
			key, st.W, st.Goals, base.Expanded, base.Goals)
	}
	got := fingerprintOf(st)
	if pinned != nil {
		if want, ok := pinned[key]; !ok || got != want {
			return fmt.Errorf("%s: schedule fingerprint %+v, pinned %+v", key, got, want)
		}
	}
	if first, ok := seen[key]; ok && got != first {
		return fmt.Errorf("%s: schedule fingerprint %+v differs from this run's first %+v", key, got, first)
	}
	seen[key] = got
	return nil
}

// searchRec is one timed engine search.
type searchRec struct {
	wall  time.Duration
	stats msim.Stats
}

// engineRep is one repetition of an engine workload's unit of work.
type engineRep struct {
	// Set-up and the serial baseline are zero on a repetition that reused
	// the instance of an earlier one.
	setup    time.Duration // instance, bound search, serial baseline, machines
	baseline time.Duration // the serial search.DFS run alone
	baseW    int64
	searches []searchRec
}

func (r engineRep) totals() (w int64, wall time.Duration) {
	for _, s := range r.searches {
		w += s.stats.W
		wall += s.wall
	}
	return w, wall
}

// enginePhase is the untraced or the traced half of an engine workload's
// run.
type enginePhase struct {
	reps  []engineRep
	tally tally
	tr    *tracer // nil when untraced
	clock expandClock
	seen  map[string]fingerprint // shared by both phases of a run

	gcCycles, allocBytes uint64 // runtime/metrics deltas over the phase

	// Puzzle workload only: residency-manager and checkpoint-sink totals.
	spill                spill.Stats
	ckptCount, ckptBytes int64
}

// runSearch times one search; traced phases also wrap it in a span.
func (ph *enginePhase) runSearch(ctx context.Context, run func(context.Context) (msim.Stats, error)) (searchRec, error) {
	id := -1
	if ph.tr != nil {
		id = ph.tr.enter("engine.run")
	}
	start := time.Now()
	st, err := run(ctx)
	wall := time.Since(start)
	if id >= 0 {
		ph.tr.exit(id)
	}
	return searchRec{wall: wall, stats: st}, err
}

func (ph *enginePhase) totals() (w int64, wall time.Duration) {
	for _, r := range ph.reps {
		rw, rwall := r.totals()
		w += rw
		wall += rwall
	}
	return w, wall
}

// repRates returns each repetition's nodes expanded per engine
// wall-clock second.
func (ph *enginePhase) repRates() []float64 {
	var xs []float64
	for _, r := range ph.reps {
		w, wall := r.totals()
		xs = append(xs, float64(w)/wall.Seconds())
	}
	return xs
}

// nodesPerSecond is the median over repetitions of nodes expanded per
// engine wall-clock second.
func (ph *enginePhase) nodesPerSecond() float64 { return median(ph.repRates()) }

// runtimeSample reads the runtime counters a phase reports as deltas.
func runtimeSample() (gcCycles, allocBytes uint64) {
	s := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// endToEnd reports the user-visible metrics of an untraced engine phase.
func (ph *enginePhase) endToEnd(w io.Writer, m metrics) {
	printSpread(w, "nodes_per_s", ph.repRates())
	var jobs, setups, capacity []float64
	for _, r := range ph.reps {
		if r.setup > 0 {
			setups = append(setups, r.setup.Seconds())
		}
		_, wall := r.totals()
		capacity = append(capacity, float64(len(r.searches))/wall.Seconds())
		for _, s := range r.searches {
			jobs = append(jobs, ms(s.wall))
		}
	}
	m.set("nodes_per_s", ph.nodesPerSecond(), "1/s")
	m.set("efficiency", efficiency(ph.reps[0].searches), "ratio")
	m.set("job_p50_ms", quantile(jobs, 0.50), "ms")
	m.set("job_p99_ms", tailQuantile(jobs), "ms")
	m.set("capacity_jobs_per_s", median(capacity), "1/s")
	m.set("setup_s", median(setups), "s")
	m.set("max_rss_bytes", maxRSSBytes(), "bytes")
}

// efficiency is the paper's E over a set of searches: sum W*Ucalc over
// sum P*Tpar.
func efficiency(searches []searchRec) float64 {
	var calc, par float64
	for _, s := range searches {
		calc += float64(s.stats.Tcalc)
		par += float64(s.stats.P) * float64(s.stats.Tpar)
	}
	return calc / par
}

// layerMetrics reports the per-layer metrics shared by the engine
// workloads from the traced phase tr and the untraced phase un.  The
// ledger it prints adds up: engine wall = expand + balance + spill +
// checkpoint sink + simd self.
func layerMetrics(w io.Writer, domain string, un, tr *enginePhase, m metrics) {
	self := tr.tr.selfTimes()
	nodes, wall := tr.totals()
	calls, expand := tr.clock.totals()
	expandWall := expand / time.Duration(workers())
	var spillSelf time.Duration
	for _, name := range []string{"spill.barrier", "spill.sweep", "spill.fault_all", "spill.reset"} {
		spillSelf += self[name]
	}
	balance, sink := self["simd.balance"], self["checkpoint.sink"]
	simdSelf := wall - expandWall - balance - spillSelf - sink
	fmt.Fprintf(w, "ledger: engine wall %.4fs = %s expand %.4fs (summed over workers / %d) + balance %.4fs + spill %.4fs + checkpoint sink %.4fs + simd self %.4fs\n",
		wall.Seconds(), domain, expandWall.Seconds(), workers(), balance.Seconds(), spillSelf.Seconds(), sink.Seconds(), simdSelf.Seconds())

	reps := float64(len(tr.reps))
	m.set("simd.self_ns_per_node", float64(simdSelf)/float64(nodes), "ns")
	if phases := tr.tr.count("simd.balance"); phases > 0 {
		m.set("simd.balance_ns_per_phase", float64(balance)/float64(phases), "ns")
	}
	var cycles, lb, transfers int
	for _, s := range tr.reps[0].searches {
		cycles += s.stats.Cycles
		lb += s.stats.LBPhases
		transfers += s.stats.Transfers
	}
	m.set("simd.cycles", float64(cycles), "count")
	m.set("simd.lb_phases", float64(lb), "count")
	m.set("simd.transfers", float64(transfers), "count")

	var dfs []float64
	for _, r := range append(append([]engineRep{}, un.reps...), tr.reps...) {
		if r.baseW > 0 {
			dfs = append(dfs, float64(r.baseline)/float64(r.baseW))
		}
	}
	m.set(domain+".expand_ns_per_node", float64(expand)/float64(calls), "ns")
	m.set(domain+".dfs_ns_per_node", median(dfs), "ns")

	m.set("spill.self_s", spillSelf.Seconds()/reps, "s")
	if roundtrips := float64(tr.spill.Evictions+tr.spill.Faults) / 2; roundtrips > 0 {
		m.set("spill.us_per_roundtrip", float64(spillSelf)/float64(time.Microsecond)/roundtrips, "us")
	}
	m.set("spill.evictions", float64(tr.spill.Evictions)/reps, "count")
	m.set("spill.faults", float64(tr.spill.Faults)/reps, "count")
	m.set("spill.bytes_written", float64(tr.spill.BytesWritten)/reps, "bytes")
	m.set("spill.bytes_read", float64(tr.spill.BytesRead)/reps, "bytes")
	m.set("checkpoint.count", float64(tr.ckptCount)/reps, "count")
	m.set("checkpoint.bytes", float64(tr.ckptBytes)/reps, "bytes")
	m.set("checkpoint.sink_s", sink.Seconds()/reps, "s")

	unNodes, _ := un.totals()
	m.set("runtime.alloc_bytes_per_node", float64(un.allocBytes)/float64(unNodes), "bytes")
	m.set("runtime.gc_cycles", float64(un.gcCycles)/float64(len(un.reps)), "count")
	m.set("trace.overhead_share", 1-tr.nodesPerSecond()/un.nodesPerSecond(), "share")
}

// runEngine runs an engine workload: one untraced phase for the whole
// time, or, traced, an untraced and a traced phase of half the time each.
func runEngine(ctx context.Context, e *env, domain string, phase func(context.Context, *env, *enginePhase, time.Duration) error) (outcome, error) {
	seen := map[string]fingerprint{}
	newPhase := func(traced bool) *enginePhase {
		ph := &enginePhase{seen: seen}
		if traced {
			ph.tr = newTracer()
		}
		return ph
	}
	runPhase := func(ph *enginePhase, d time.Duration) error {
		gc0, alloc0 := runtimeSample()
		err := phase(ctx, e, ph, d)
		gc1, alloc1 := runtimeSample()
		ph.gcCycles, ph.allocBytes = gc1-gc0, alloc1-alloc0
		return err
	}
	m := metrics{}
	un := newPhase(false)
	if !e.traced {
		if err := runPhase(un, e.seconds); err != nil {
			return outcome{}, err
		}
		un.endToEnd(e.out, m)
		return outcome{tally: un.tally, metrics: m}, nil
	}
	if err := runPhase(un, e.seconds/2); err != nil {
		return outcome{}, err
	}
	tr := newPhase(true)
	if err := runPhase(tr, e.seconds/2); err != nil {
		return outcome{}, err
	}
	if err := tr.tr.writeFile(spansPath(e, domain)); err != nil {
		return outcome{}, err
	}
	layerMetrics(e.out, domain, un, tr, m)
	t := un.tally
	t.add(tr.tally)
	return outcome{tally: t, metrics: m}, nil
}

// table1Pinned is the schedule of every Table 1 scheme on the default
// seed's tree (W = 3.1M, P = 8192).
var table1Pinned = map[string]fingerprint{
	"nGP-S0.85": {3100000, 480, 256, 607767},
	"nGP-DP":    {3100000, 523, 163, 453198},
	"nGP-DK":    {3100000, 517, 199, 463190},
	"GP-S0.85":  {3100000, 460, 141, 202572},
	"GP-DP":     {3100000, 475, 106, 195317},
	"GP-DK":     {3100000, 469, 130, 190430},
}

func runTable1(ctx context.Context, e *env) (outcome, error) {
	return runEngine(ctx, e, "synthetic", table1Phase)
}

// table1Phase runs the six Table 1 schemes on one synthetic tree,
// repeatedly, until d has passed.
func table1Phase(ctx context.Context, e *env, ph *enginePhase, d time.Duration) error {
	w, p := int64(3_100_000), 8192
	if e.tiny {
		w, p = 60_000, 256
	}
	var pinned map[string]fingerprint
	if !e.tiny && e.seed == defaultSeed {
		pinned = table1Pinned
	}
	labels := simd.Table1Labels(0.85)
	deadline := time.Now().Add(d)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		start := time.Now()
		tree := synthetic.New(w, e.seed)
		base := search.DFS[synthetic.Node](tree)
		r := engineRep{baseline: time.Since(start), baseW: base.Expanded}
		var dom search.Domain[synthetic.Node] = tree
		if ph.tr != nil {
			dom = timeDomain(dom, &ph.clock)
		}
		machines := make([]*simd.Machine[synthetic.Node], len(labels))
		for i, label := range labels {
			sch, err := simd.ParseScheme[synthetic.Node](label)
			if err != nil {
				return err
			}
			if ph.tr != nil {
				// No checkpoint is taken here, so hiding the balancer's
				// concrete type from the snapshot code is harmless.
				sch.Balancer = &timedBalancer[synthetic.Node]{b: sch.Balancer, tr: ph.tr}
			}
			if machines[i], err = simd.NewMachine[synthetic.Node](dom, sch, simd.Options{P: p, Workers: workers()}); err != nil {
				return err
			}
		}
		r.setup = time.Since(start)
		for i, label := range labels {
			rec, err := ph.runSearch(ctx, machines[i].RunContext)
			machines[i] = nil // let the arena go before the next search
			if err == nil {
				err = checkSearch(label, rec.stats, base, pinned, ph.seen)
			}
			ph.tally.record(err)
			r.searches = append(r.searches, rec)
		}
		ph.reps = append(ph.reps, r)
	}
	return nil
}
