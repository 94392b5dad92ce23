package steal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"simdtree/internal/checkpoint"
	"simdtree/internal/match"
	"simdtree/internal/metrics"
	"simdtree/internal/scan"
	"simdtree/internal/simd"
	"simdtree/internal/topology"
	"simdtree/internal/trace"
	"simdtree/internal/trigger"
)

// Shard is the coordinator's view of one node-hosted shard: the Host
// operations lifted over a transport.  Every call is a cycle-boundary
// operation; the driver is the only caller and never issues two calls to
// the same shard concurrently.
type Shard interface {
	Range() (lo, hi int)
	Step(ctx context.Context) (simd.CycleInfo, error)
	Flags(ctx context.Context) (busy, idle []bool, err error)
	Transfer(ctx context.Context, from, to int) (int, error)
	Split(ctx context.Context, id uint64, from, to int) ([]byte, int, error)
	Absorb(ctx context.Context, frame []byte) (int, error)
	Export(ctx context.Context) (stacks [][]byte, domainState []byte, err error)
	Merge(ctx context.Context, states [][]byte) ([]byte, error)
	Status(ctx context.Context) (allEmpty, anyDonor bool, err error)
}

// BatchShard is a Shard that takes a whole matching round per call: one
// Apply carries every local transfer and donor-side split of the shard,
// another every frame addressed to it.  LocalShard and *HTTPShard
// implement it natively; the driver runs any other Shard through
// perPair, which loops the same batches one pair at a time.
type BatchShard interface {
	Shard
	Apply(ctx context.Context, b Batch) (BatchResult, error)
}

// perPair adapts a Shard without a native Apply: identical results, one
// call per pair plus one Flags call when the batch asks for flags.
type perPair struct{ Shard }

func (s perPair) Apply(ctx context.Context, b Batch) (BatchResult, error) {
	var r BatchResult
	for _, op := range b.Ops {
		var stack []byte
		var n int
		var err error
		if op.Split {
			stack, n, err = s.Split(ctx, op.Donation, op.From, op.To)
		} else {
			n, err = s.Transfer(ctx, op.From, op.To)
		}
		if err != nil {
			return BatchResult{}, err
		}
		r.Moved, r.Stacks = append(r.Moved, n), append(r.Stacks, stack)
	}
	for _, f := range b.Frames {
		n, err := s.Absorb(ctx, f)
		if err != nil {
			return BatchResult{}, err
		}
		r.Absorbed = append(r.Absorbed, n)
	}
	if b.WantFlags {
		var err error
		if r.Busy, r.Idle, err = s.Flags(ctx); err != nil {
			return BatchResult{}, err
		}
	}
	return r, nil
}

// The per-pair Shard operations of the batch shards are one-element
// batches.

func transferOne(ctx context.Context, s BatchShard, from, to int) (int, error) {
	r, err := s.Apply(ctx, Batch{Ops: []Op{{From: from, To: to}}})
	if err != nil {
		return 0, err
	}
	return r.Moved[0], nil
}

func splitOne(ctx context.Context, s BatchShard, id uint64, from, to int) ([]byte, int, error) {
	r, err := s.Apply(ctx, Batch{Ops: []Op{{Split: true, Donation: id, From: from, To: to}}})
	if err != nil {
		return nil, 0, err
	}
	return r.Stacks[0], r.Moved[0], nil
}

func absorbOne(ctx context.Context, s BatchShard, frame []byte) (int, error) {
	r, err := s.Apply(ctx, Batch{Frames: [][]byte{frame}})
	if err != nil {
		return 0, err
	}
	return r.Absorbed[0], nil
}

// LocalShard adapts an in-process Host to the BatchShard interface; the
// context is ignored because nothing blocks.
type LocalShard struct{ H Host }

func (s LocalShard) Range() (int, int) { return s.H.Range() }
func (s LocalShard) Step(context.Context) (simd.CycleInfo, error) {
	return s.H.Step(), nil
}
func (s LocalShard) Flags(context.Context) ([]bool, []bool, error) {
	busy, idle := s.H.Flags()
	return busy, idle, nil
}
func (s LocalShard) Apply(_ context.Context, b Batch) (BatchResult, error) {
	return s.H.Apply(b)
}
func (s LocalShard) Transfer(ctx context.Context, from, to int) (int, error) {
	return transferOne(ctx, s, from, to)
}
func (s LocalShard) Split(ctx context.Context, id uint64, from, to int) ([]byte, int, error) {
	return splitOne(ctx, s, id, from, to)
}
func (s LocalShard) Absorb(ctx context.Context, frame []byte) (int, error) {
	return absorbOne(ctx, s, frame)
}
func (s LocalShard) Export(context.Context) ([][]byte, []byte, error) {
	return s.H.Export()
}
func (s LocalShard) Merge(_ context.Context, states [][]byte) ([]byte, error) {
	return s.H.Merge(states)
}
func (s LocalShard) Status(context.Context) (bool, bool, error) {
	allEmpty, anyDonor := s.H.Status()
	return allEmpty, anyDonor, nil
}

// ProgressInfo is the distributed analogue of simd.ProgressInfo, with the
// shard dimension the SSE progress events surface.
type ProgressInfo struct {
	Cycles   int
	Active   int
	W        int64
	LBPhases int
	Tpar     time.Duration
	// ShardActive is the per-shard share of Active, in shard order.
	ShardActive []int
}

// Config parameterises a distributed run.  The schedule inputs (scheme,
// costs, topology, budgets) must be the ones the original single-node job
// ran with, or the schedules diverge.
type Config struct {
	// Key is the job's cache key, stamped into every frame.
	Key string
	// Meta is the checkpoint meta of the donated job; assembled
	// checkpoints reuse it verbatim, which keeps them byte-compatible
	// with single-node ones.
	Meta checkpoint.Meta
	// Scheme is the codec-erased scheme (simd.ParseSchemeParts).
	Scheme simd.SchemeParts
	// Costs is the virtual cost model; zero fields default like the
	// engine's.
	Costs simd.Costs
	// Topology is the interconnection network; nil means the CM-2.
	Topology topology.Network
	// P is the machine size; the shards must tile [0, P).
	P int
	// InitThreshold mirrors simd.Options.InitThreshold.
	InitThreshold float64
	// StopAtFirstGoal mirrors simd.Options.StopAtFirstGoal.
	StopAtFirstGoal bool
	// MaxCycles mirrors simd.Options.MaxCycles.
	MaxCycles int
	// CheckpointEvery assembles and emits a cluster-wide checkpoint every
	// N completed cycles; 0 disables periodic checkpoints.
	CheckpointEvery int
	// OnCheckpoint receives each assembled, encoded checkpoint; an error
	// aborts the run.  The cluster ships it to the home node's spool so
	// the sharded job survives a restart.
	OnCheckpoint func(ctx context.Context, encoded []byte) error
	// Progress, when non-nil, fires every ProgressEvery cycles.
	Progress func(ProgressInfo)
	// ProgressEvery is the Progress cadence; 0 means the engine default.
	ProgressEvery int
}

// Result is the outcome of a distributed run: the same Stats and trace a
// single machine would have produced, plus steal-specific counters.
type Result struct {
	Stats metrics.Stats
	Trace *trace.Trace
	// Donations counts the cross-shard frames shipped.
	Donations int
	// LocalTransfers counts the transfers that stayed within one shard.
	LocalTransfers int
	// Rounds counts the matching rounds that matched at least one pair;
	// each costs every shard at most one round and one absorb call.
	Rounds int
}

// Driver replicates the engine's run loop over remote shards: it owns the
// full schedule ledger (stats, phase accumulators, virtual clock, trace,
// GP pointer) seeded from the donated checkpoint, steps every shard one
// cycle per iteration, and performs load-balancing phases by assembling
// global busy/idle flags, matching them exactly as a single machine
// would, and executing each matching round as one batch per donor shard
// (local transfers and donor-side splits) followed by one batch per
// receiving shard (the donation frames).
type Driver struct {
	cfg    Config
	shards []BatchShard
	// shardOf maps a global PE index to its shard's index.
	shardOf []int

	costs simd.Costs
	topo  topology.Network
	trig  trigger.Trigger
	mtchr match.Matcher

	stats metrics.Stats
	goals int64

	initDone     bool
	phaseCycles  int
	phaseElapsed time.Duration
	phaseWork    time.Duration
	phaseIdle    time.Duration
	estLB        time.Duration

	tr *trace.Trace

	// Cycle-boundary flags tracked from the latest reductions.
	allEmpty bool
	anyDonor bool

	// seq is the next donation id; donations are totally ordered by it.
	seq uint64

	donations      int
	localTransfers int
	rounds         int

	// Reusable scratch for the per-cycle fan-out and the per-phase global
	// flag assembly.
	infos       []simd.CycleInfo
	errs        []error
	busy, idle  []bool
	shardActive []int

	// Per-round scratch: each shard's round and absorb batches and
	// results, each pair's index in its donor's round batch, the pair of
	// each frame in a shard's absorb batch, and the nodes each pair moved.
	roundBatches  []Batch
	absorbBatches []Batch
	results       []BatchResult
	slot          []int
	framePair     [][]int
	moved         []int
}

// NewDriver validates the shard tiling and seeds the schedule ledger from
// the donated checkpoint.  The snapshot's stacks are not used here — the
// caller installed them into the shards — only its ledger fields.
func NewDriver(cfg Config, snap *checkpoint.RawSnapshot, shards []Shard) (*Driver, error) {
	if snap == nil {
		return nil, errors.New("steal: nil snapshot")
	}
	if cfg.P <= 0 {
		return nil, fmt.Errorf("steal: invalid processor count %d", cfg.P)
	}
	if len(snap.Stacks) != cfg.P {
		return nil, fmt.Errorf("steal: snapshot has %d stacks, config has P=%d", len(snap.Stacks), cfg.P)
	}
	if snap.Stats.P != cfg.P {
		return nil, fmt.Errorf("steal: snapshot stats are for P=%d, config has P=%d", snap.Stats.P, cfg.P)
	}
	if cfg.Scheme.Trigger == nil || cfg.Scheme.Matcher == nil {
		return nil, errors.New("steal: scheme is missing a trigger or matcher")
	}
	if len(shards) == 0 {
		return nil, errors.New("steal: no shards")
	}
	shardOf := make([]int, cfg.P)
	for pe := range shardOf {
		shardOf[pe] = -1
	}
	for i, sh := range shards {
		lo, hi := sh.Range()
		if lo < 0 || hi > cfg.P || lo >= hi {
			return nil, fmt.Errorf("steal: shard %d range [%d, %d) invalid for P=%d", i, lo, hi, cfg.P)
		}
		for pe := lo; pe < hi; pe++ {
			if shardOf[pe] != -1 {
				return nil, fmt.Errorf("steal: PE %d covered by shards %d and %d", pe, shardOf[pe], i)
			}
			shardOf[pe] = i
		}
	}
	for pe, s := range shardOf {
		if s == -1 {
			return nil, fmt.Errorf("steal: PE %d not covered by any shard", pe)
		}
	}

	batchShards := make([]BatchShard, len(shards))
	for i, sh := range shards {
		if bs, ok := sh.(BatchShard); ok {
			batchShards[i] = bs
		} else {
			batchShards[i] = perPair{sh}
		}
	}
	d := &Driver{
		cfg:     cfg,
		shards:  batchShards,
		shardOf: shardOf,
		costs:   cfg.Costs.Normalized(),
		topo:    cfg.Topology,
		trig:    cfg.Scheme.Trigger,
		mtchr:   cfg.Scheme.Matcher,

		stats:        snap.Stats,
		goals:        snap.Stats.Goals,
		initDone:     snap.InitDone,
		phaseCycles:  snap.PhaseCycles,
		phaseElapsed: snap.PhaseElapsed,
		phaseWork:    snap.PhaseWork,
		phaseIdle:    snap.PhaseIdle,
		estLB:        snap.EstLB,
		tr:           snap.Trace,

		infos:       make([]simd.CycleInfo, len(shards)),
		errs:        make([]error, len(shards)),
		busy:        make([]bool, cfg.P),
		idle:        make([]bool, cfg.P),
		shardActive: make([]int, len(shards)),

		roundBatches:  make([]Batch, len(shards)),
		absorbBatches: make([]Batch, len(shards)),
		results:       make([]BatchResult, len(shards)),
		framePair:     make([][]int, len(shards)),
	}
	if d.topo == nil {
		d.topo = topology.CM2{}
	}
	d.stats.Cancelled = false
	d.trig.Reset()
	d.mtchr.Reset()
	if gp, ok := d.mtchr.(*match.GP); ok {
		gp.SetPointer(snap.MatcherPointer)
	}
	return d, nil
}

// Run advances the distributed schedule to completion (or cancellation,
// budget exhaustion, shard failure, or a checkpoint-sink error) and
// returns the cumulative result.  Like the engine, cancellation lands only
// at cycle boundaries, a final checkpoint is emitted for the exact prefix,
// and the Stats of a completed run are byte-identical to the
// single-machine run of the same job.
func (d *Driver) Run(ctx context.Context) (Result, error) {
	if err := d.refreshStatus(ctx); err != nil {
		return d.result(), err
	}
	runErr := d.run(ctx)
	if runErr != nil && d.stats.Cancelled && d.checkpointing() {
		// Mirror the server's cancelled-run behaviour: spool the exact
		// prefix so a restart (or a failover re-import) loses nothing.
		if err := d.emitCheckpoint(ctx); err != nil {
			runErr = errors.Join(runErr, err)
		}
	}
	d.fillDerived()
	return d.result(), runErr
}

func (d *Driver) result() Result {
	return Result{
		Stats:          d.stats,
		Trace:          d.tr,
		Donations:      d.donations,
		LocalTransfers: d.localTransfers,
		Rounds:         d.rounds,
	}
}

func (d *Driver) checkpointing() bool {
	return d.cfg.CheckpointEvery > 0 && d.cfg.OnCheckpoint != nil
}

// run mirrors Machine.run exactly, one globally reduced decision at a
// time.
func (d *Driver) run(ctx context.Context) error {
	if !d.initDone {
		initTh := d.cfg.InitThreshold
		if initTh == 0 && d.cfg.Scheme.WantInit {
			initTh = 0.85
		}
		if initTh > 0 {
			if err := d.initialDistribution(ctx, initTh); err != nil {
				return err
			}
		}
		d.initDone = true
	}
	for {
		if d.allEmpty {
			return nil
		}
		if err := d.checkBudget(); err != nil {
			return err
		}
		if err := d.checkCtx(ctx); err != nil {
			return err
		}
		if err := d.maybeCheckpoint(ctx); err != nil {
			return err
		}
		active, err := d.stepAll(ctx)
		if err != nil {
			return err
		}
		st := d.triggerState(active)
		d.recordSample(st)
		if d.cfg.StopAtFirstGoal && d.goals > 0 {
			return nil
		}
		if d.trig.ShouldBalance(st) && active < d.stats.P && d.anyDonor {
			if err := d.balance(ctx, false); err != nil {
				return err
			}
		}
	}
}

// initialDistribution mirrors Machine.initialDistribution.
func (d *Driver) initialDistribution(ctx context.Context, threshold float64) error {
	if threshold > 1 {
		threshold = 1
	}
	target := int(math.Ceil(threshold * float64(d.stats.P)))
	for {
		if d.allEmpty {
			return nil
		}
		if err := d.checkBudget(); err != nil {
			return err
		}
		if err := d.checkCtx(ctx); err != nil {
			return err
		}
		if err := d.maybeCheckpoint(ctx); err != nil {
			return err
		}
		active, err := d.stepAll(ctx)
		if err != nil {
			return err
		}
		d.stats.InitCycles++
		d.recordSample(d.triggerState(active))
		if d.cfg.StopAtFirstGoal && d.goals > 0 {
			return nil
		}
		if active >= target {
			return nil
		}
		if active < d.stats.P && d.anyDonor {
			if err := d.balance(ctx, true); err != nil {
				return err
			}
		}
	}
}

// refreshStatus seeds the cycle-boundary flags before the first driven
// cycle by querying every shard.
func (d *Driver) refreshStatus(ctx context.Context) error {
	d.allEmpty = true
	d.anyDonor = false
	for i, sh := range d.shards {
		empty, donor, err := sh.Status(ctx)
		if err != nil {
			return fmt.Errorf("steal: shard %d status: %w", i, err)
		}
		d.allEmpty = d.allEmpty && empty
		d.anyDonor = d.anyDonor || donor
	}
	return nil
}

// stepAll steps every shard one cycle concurrently, reduces the results in
// shard order, and applies the exact ledger mutations of Machine.cycle.
func (d *Driver) stepAll(ctx context.Context) (int, error) {
	var wg sync.WaitGroup
	for i := range d.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.infos[i], d.errs[i] = d.shards[i].Step(ctx)
		}(i)
	}
	wg.Wait()

	active := 0
	allEmpty, anyDonor := true, false
	peak := 0
	for i, info := range d.infos {
		if err := d.errs[i]; err != nil {
			return 0, fmt.Errorf("steal: shard %d step: %w", i, err)
		}
		active += info.Active
		d.goals += info.Goals
		if info.Peak > peak {
			peak = info.Peak
		}
		allEmpty = allEmpty && info.AllEmpty
		anyDonor = anyDonor || info.AnyDonor
		d.shardActive[i] = info.Active
	}
	d.allEmpty = allEmpty
	d.anyDonor = anyDonor
	if peak > d.stats.PeakStack {
		d.stats.PeakStack = peak
	}

	ucalc := d.costs.NodeExpansion
	d.stats.W += int64(active)
	d.stats.Cycles++
	d.stats.Tpar += ucalc
	idle := time.Duration(d.stats.P-active) * ucalc
	d.stats.Tidle += idle
	d.phaseCycles++
	d.phaseElapsed += ucalc
	d.phaseWork += time.Duration(active) * ucalc
	d.phaseIdle += idle

	if d.cfg.Progress != nil {
		every := d.cfg.ProgressEvery
		if every <= 0 {
			every = 1000
		}
		if d.stats.Cycles%every == 0 {
			d.cfg.Progress(ProgressInfo{
				Cycles:      d.stats.Cycles,
				Active:      active,
				W:           d.stats.W,
				LBPhases:    d.stats.LBPhases,
				Tpar:        d.stats.Tpar,
				ShardActive: append([]int(nil), d.shardActive...),
			})
		}
	}
	return active, nil
}

// triggerState mirrors Machine.triggerState.
func (d *Driver) triggerState(active int) trigger.State {
	return trigger.State{
		P:       d.stats.P,
		Active:  active,
		Cycles:  d.phaseCycles,
		Elapsed: d.phaseElapsed,
		Work:    d.phaseWork,
		Idle:    d.phaseIdle,
		EstLB:   d.estLB,
	}
}

// recordSample mirrors Machine.recordSample.
func (d *Driver) recordSample(st trigger.State) {
	if d.tr == nil {
		return
	}
	var r1, r2 time.Duration
	switch t := d.trig.(type) {
	case trigger.DP:
		r1 = st.Work - time.Duration(st.Active)*st.Elapsed
		r2 = time.Duration(st.Active) * st.EstLB
	case trigger.DK:
		r1 = st.Idle
		r2 = time.Duration(st.P) * st.EstLB
	case trigger.Static:
		r1 = time.Duration(st.Active)
		r2 = time.Duration(t.X * float64(st.P))
	default:
		r1 = time.Duration(st.Active)
	}
	d.tr.RecordCycle(trace.Sample{
		Cycle:  d.stats.Cycles,
		Active: st.Active,
		R1:     r1,
		R2:     r2,
	})
}

// gatherFlags assembles the global busy/idle flags from every shard.
func (d *Driver) gatherFlags(ctx context.Context) error {
	type flagRes struct{ busy, idle []bool }
	res := make([]flagRes, len(d.shards))
	var wg sync.WaitGroup
	for i := range d.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i].busy, res[i].idle, d.errs[i] = d.shards[i].Flags(ctx)
		}(i)
	}
	wg.Wait()
	for i, fr := range res {
		if err := d.errs[i]; err != nil {
			return fmt.Errorf("steal: shard %d flags: %w", i, err)
		}
		if err := d.setFlags(i, fr.busy, fr.idle); err != nil {
			return err
		}
	}
	return nil
}

// setFlags copies shard i's flags into the global busy/idle vectors.
func (d *Driver) setFlags(i int, busy, idle []bool) error {
	lo, hi := d.shards[i].Range()
	if len(busy) != hi-lo || len(idle) != hi-lo {
		return fmt.Errorf("steal: shard %d returned %d/%d flags for a %d-PE range", i, len(busy), len(idle), hi-lo)
	}
	copy(d.busy[lo:hi], busy)
	copy(d.idle[lo:hi], idle)
	return nil
}

// balance replicates one load-balancing phase: MatchBalancer.Balance's
// round loop with the matcher run on globally assembled flags, each
// matching round executed by round, and the exact accounting of
// Machine.balance.  The flags are gathered once per phase; a multi-round
// scheme matches each later round on the flags the round's batches
// returned.
func (d *Driver) balance(ctx context.Context, initPhase bool) error {
	recordDonors := d.tr.WantDonors()
	var donors []int
	rounds, transfers, maxTransfer := 0, 0, 0
	if err := d.gatherFlags(ctx); err != nil {
		return err
	}
	for {
		pairs := d.mtchr.Match(d.busy, d.idle)
		if len(pairs) == 0 {
			if rounds == 0 {
				rounds = 1 // the phase still pays its setup scans
			}
			break
		}
		rounds++
		if err := d.round(ctx, pairs); err != nil {
			return err
		}
		for k, moved := range d.moved {
			if moved > 0 {
				transfers++
				if moved > maxTransfer {
					maxTransfer = moved
				}
				if recordDonors {
					donors = append(donors, pairs[k].From)
				}
			}
		}
		if !d.cfg.Scheme.Multi {
			break
		}
	}
	cost := d.costs.PhaseCost(d.topo, d.stats.P, rounds)
	cost += d.costs.MessageCost(d.topo, d.stats.P, maxTransfer)

	d.stats.Tpar += cost
	d.stats.Tlb += cost * time.Duration(d.stats.P)
	d.stats.LBPhases++
	d.stats.Transfers += transfers
	if initPhase {
		d.stats.InitPhases++
	}
	if maxTransfer > d.stats.MaxTransfer {
		d.stats.MaxTransfer = maxTransfer
	}
	d.estLB = cost
	d.phaseCycles = 0
	d.phaseElapsed = 0
	d.phaseWork = 0
	d.phaseIdle = 0
	if d.tr != nil {
		d.tr.RecordPhase(trace.Event{
			Cycle:     d.stats.Cycles,
			Transfers: transfers,
			Cost:      cost,
			Donors:    donors,
		})
	}
	// A transfer can revive donor eligibility (or hand the last splittable
	// stack elsewhere); the run loop re-reads these after the next cycle,
	// but the balance itself never empties a non-empty machine.
	return nil
}

// round executes one matching round in two concurrent fan-outs and leaves
// the nodes each pair moved in d.moved.  First every shard holding a
// donor gets one batch of its local transfers and donor-side splits, in
// pair order, with donation ids minted in pair order; then every shard
// receiving a donation gets one batch of its frames.  The pairs of a
// round are disjoint, so each shard's order is the single-machine order
// restricted to the shard and the schedule is unchanged.
func (d *Driver) round(ctx context.Context, pairs []scan.Pair) error {
	d.rounds++
	want := d.cfg.Scheme.Multi
	for i := range d.shards {
		d.roundBatches[i] = Batch{Ops: d.roundBatches[i].Ops[:0], WantFlags: want}
		d.absorbBatches[i] = Batch{Frames: d.absorbBatches[i].Frames[:0], WantFlags: want}
		d.framePair[i] = d.framePair[i][:0]
	}
	d.slot = d.slot[:0]
	for _, p := range pairs {
		si := d.shardOf[p.From]
		op := Op{From: p.From, To: p.To}
		if d.shardOf[p.To] != si {
			op.Split, op.Donation = true, d.seq
			d.seq++
		}
		d.slot = append(d.slot, len(d.roundBatches[si].Ops))
		d.roundBatches[si].Ops = append(d.roundBatches[si].Ops, op)
	}
	if err := d.applyAll(ctx, d.roundBatches, "round"); err != nil {
		return err
	}

	d.moved = d.moved[:0]
	for k, p := range pairs {
		si, j := d.shardOf[p.From], d.slot[k]
		op, res := d.roundBatches[si].Ops[j], &d.results[si]
		moved := res.Moved[j]
		d.moved = append(d.moved, moved)
		switch {
		case moved == 0:
		case !op.Split:
			d.localTransfers++
		case len(res.Stacks[j]) == 0:
			return fmt.Errorf("steal: shard %d split %d nodes for donation %d but sent no stack", si, moved, op.Donation)
		default:
			frame, err := EncodeFrame(&Frame{
				Key:      d.cfg.Key,
				Codec:    d.cfg.Meta.Codec,
				Donation: op.Donation,
				Cycle:    d.stats.Cycles,
				From:     p.From,
				To:       p.To,
				Stack:    res.Stacks[j],
			})
			if err != nil {
				return err
			}
			ri := d.shardOf[p.To]
			d.absorbBatches[ri].Frames = append(d.absorbBatches[ri].Frames, frame)
			d.framePair[ri] = append(d.framePair[ri], k)
		}
	}
	if err := d.applyAll(ctx, d.absorbBatches, "absorb"); err != nil {
		return err
	}
	for ri, ks := range d.framePair {
		for j, k := range ks {
			if got := d.results[ri].Absorbed[j]; got != d.moved[k] {
				return fmt.Errorf("steal: PE %d donated %d nodes but shard %d absorbed %d", pairs[k].From, d.moved[k], ri, got)
			}
			d.donations++
		}
	}
	return nil
}

// applyAll sends every non-empty batch to its shard concurrently, checks
// the results' shapes, and copies any returned flags into the global
// vectors.
func (d *Driver) applyAll(ctx context.Context, batches []Batch, what string) error {
	var wg sync.WaitGroup
	for i := range batches {
		if len(batches[i].Ops)+len(batches[i].Frames) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.results[i], d.errs[i] = d.shards[i].Apply(ctx, batches[i])
		}(i)
	}
	wg.Wait()
	for i, b := range batches {
		if len(b.Ops)+len(b.Frames) == 0 {
			continue
		}
		if err := d.errs[i]; err != nil {
			return fmt.Errorf("steal: shard %d %s: %w", i, what, err)
		}
		r := &d.results[i]
		if err := r.answers(&b); err != nil {
			return fmt.Errorf("steal: shard %d %s: %w", i, what, err)
		}
		if b.WantFlags {
			if err := d.setFlags(i, r.Busy, r.Idle); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkBudget mirrors Machine.checkBudget.
func (d *Driver) checkBudget() error {
	if d.cfg.MaxCycles > 0 && d.stats.Cycles >= d.cfg.MaxCycles {
		return fmt.Errorf("steal: %w MaxCycles=%d (W so far %d)", simd.ErrBudgetExceeded, d.cfg.MaxCycles, d.stats.W)
	}
	return nil
}

// checkCtx mirrors Machine.checkCtx: cancellation lands only at cycle
// boundaries.
func (d *Driver) checkCtx(ctx context.Context) error {
	select {
	case <-ctx.Done():
		d.stats.Cancelled = true
		return context.Cause(ctx)
	default:
		return nil
	}
}

// maybeCheckpoint mirrors Machine.maybeCheckpoint at the driver level.
func (d *Driver) maybeCheckpoint(ctx context.Context) error {
	every := d.cfg.CheckpointEvery
	if every <= 0 || d.cfg.OnCheckpoint == nil || d.stats.Cycles == 0 || d.stats.Cycles%every != 0 {
		return nil
	}
	return d.emitCheckpoint(ctx)
}

// emitCheckpoint assembles the cluster-wide snapshot and hands the encoded
// checkpoint to the sink.
func (d *Driver) emitCheckpoint(ctx context.Context) error {
	snap, err := d.Assemble(ctx)
	if err != nil {
		return err
	}
	b, err := checkpoint.EncodeRaw(d.cfg.Meta, snap)
	if err != nil {
		return err
	}
	return d.cfg.OnCheckpoint(ctx, b)
}

// Assemble exports every shard and builds the cluster-wide RawSnapshot for
// the current cycle boundary — byte-identical to the Snapshot a single
// machine at the same prefix would encode.  Shard domain states are merged
// through shard 0 (a min-merge for the IDA* bound accumulator), which
// reproduces the single shared accumulator's value.
func (d *Driver) Assemble(ctx context.Context) (*checkpoint.RawSnapshot, error) {
	type expRes struct {
		stacks [][]byte
		domain []byte
		err    error
	}
	res := make([]expRes, len(d.shards))
	var wg sync.WaitGroup
	for i := range d.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var er expRes
			er.stacks, er.domain, er.err = d.shards[i].Export(ctx)
			res[i] = er
		}(i)
	}
	wg.Wait()

	stacks := make([][]byte, d.stats.P)
	var states [][]byte
	for i, er := range res {
		if er.err != nil {
			return nil, fmt.Errorf("steal: shard %d export: %w", i, er.err)
		}
		lo, hi := d.shards[i].Range()
		if len(er.stacks) != hi-lo {
			return nil, fmt.Errorf("steal: shard %d exported %d stacks for a %d-PE range", i, len(er.stacks), hi-lo)
		}
		copy(stacks[lo:hi], er.stacks)
		if er.domain != nil {
			states = append(states, er.domain)
		}
	}
	var domain []byte
	switch {
	case len(states) == 0:
		// Stateless domain.
	case len(states) != len(d.shards):
		return nil, fmt.Errorf("steal: %d of %d shards exported domain state", len(states), len(d.shards))
	case len(states) == 1:
		domain = states[0]
	default:
		merged, err := d.shards[0].Merge(ctx, states[1:])
		if err != nil {
			return nil, err
		}
		domain = merged
	}

	d.fillDerived()
	snap := &checkpoint.RawSnapshot{
		Cycle:          d.stats.Cycles,
		InitDone:       d.initDone,
		Stacks:         stacks,
		MatcherPointer: d.matcherPointer(),
		PhaseCycles:    d.phaseCycles,
		PhaseElapsed:   d.phaseElapsed,
		PhaseWork:      d.phaseWork,
		PhaseIdle:      d.phaseIdle,
		EstLB:          d.estLB,
		Stats:          d.stats,
		DomainState:    domain,
		Trace:          d.tr.Clone(),
	}
	snap.Stats.Cancelled = false
	return snap, nil
}

// matcherPointer mirrors Machine.matcherPointer for the driver's matcher.
func (d *Driver) matcherPointer() int {
	if gp, ok := d.mtchr.(*match.GP); ok {
		return gp.Pointer()
	}
	return -1
}

// fillDerived mirrors Machine.fillDerivedStats.
func (d *Driver) fillDerived() {
	d.stats.Tcalc = time.Duration(d.stats.W) * d.costs.NodeExpansion
	d.stats.Goals = d.goals
}
