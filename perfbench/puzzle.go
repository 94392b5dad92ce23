package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"simdtree/internal/checkpoint"
	"simdtree/internal/puzzle"
	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/spill"
	"simdtree/internal/wire"
)

// puzzleInstance is one 15-puzzle problem of puzzle-membound: the scramble
// that makes the start position, the final IDA* iteration's bound and node
// count W (recomputed and checked on every run), and the memory budget.
// The instances are the scrambles of 70 random moves from seeds below 260
// whose final iteration has 1.80M to 1.95M nodes.  Each budget makes GP-DK
// at P = 1024, checkpointed every 1000 cycles, evict 60 to 75 segments.
// Evictions rise steeply as the budget falls (the first instance evicts 64
// at 104 507 bytes, 221 at 102 900 and 19 561 at 75 000), so one budget for
// all would give some instances no spill and others ten times more.
type puzzleInstance struct {
	scramble uint64
	bound    int
	w        int64
	budget   int64
}

const puzzleSteps = 70

var puzzlePool = []puzzleInstance{
	{21, 40, 1806349, 104507},
	{117, 42, 1939650, 96687},
	{175, 42, 1918602, 104909},
	{176, 46, 1857444, 101054},
}

// puzzleTiny is the test-sized instance: W = 24 300 at bound 34.
var puzzleTiny = puzzleInstance{7919, 34, 24300, 1200}

// puzzlePinned is the GP-DK schedule of each instance of the pool.  Every
// run visits the whole pool, so every seed checks them all.
var puzzlePinned = map[string]fingerprint{
	"GP-DK/21":  {1806349, 1852, 161, 16171},
	"GP-DK/117": {1939650, 1990, 178, 17705},
	"GP-DK/175": {1918602, 1964, 164, 15972},
	"GP-DK/176": {1857444, 1906, 167, 16268},
}

// puzzleFor returns the instance repetition rep visits.  A run cycles
// through the pool, starting at the seed's instance.  The instances differ
// by up to 7% in W and ran at rates about 10% apart, so a run of one
// instance would make the seed move every timing; cycling makes every run
// measure the same mix.
func puzzleFor(e *env, rep int) (puzzleInstance, int) {
	if e.tiny {
		return puzzleTiny, 60
	}
	return puzzlePool[(e.seed-1+uint64(rep))%uint64(len(puzzlePool))], puzzleSteps
}

// puzzlePrep is an instance made ready to search: its start position, the
// final iteration's bound, and the serial baseline's result.
type puzzlePrep struct {
	start puzzle.Node
	bound int
	base  search.Result
}

func runPuzzle(ctx context.Context, e *env) (outcome, error) {
	return runEngine(ctx, e, "puzzle", puzzlePhase)
}

// puzzlePhase runs the final IDA* iteration of the pool's instances in
// turn with GP-DK under a memory budget, writing a checkpoint every
// checkpointEvery cycles, until d has passed.
func puzzlePhase(ctx context.Context, e *env, ph *enginePhase, d time.Duration) error {
	const label = "GP-DK"
	p, checkpointEvery := 1024, 1000
	if e.tiny {
		p, checkpointEvery = 64, 50
	}
	var pinned map[string]fingerprint
	if !e.tiny {
		pinned = puzzlePinned
	}
	codec := wire.PuzzleCodec{}
	ckptPath := filepath.Join(e.dir, "spool.sckp")
	preps := map[uint64]puzzlePrep{}
	deadline := time.Now().Add(d)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		inst, steps := puzzleFor(e, rep)
		start := time.Now()
		var r engineRep
		// The first visit to an instance makes it from scratch and is timed
		// as set-up.  The bound search and the serial baseline take longer
		// than the search itself, so later visits reuse them and the run is
		// spent mostly in measured searches.
		prep, ready := preps[inst.scramble]
		if !ready {
			prep.start = puzzle.Scramble(inst.scramble, steps)
			var w int64
			prep.bound, w = search.FinalIterationBound[puzzle.Node](puzzle.NewDomain(prep.start))
			if prep.bound != inst.bound || w != inst.w {
				return fmt.Errorf("instance %d: final iteration bound %d with %d nodes, want %d with %d",
					inst.scramble, prep.bound, w, inst.bound, inst.w)
			}
			baseStart := time.Now()
			prep.base = search.DFS[puzzle.Node](search.NewBounded[puzzle.Node](puzzle.NewDomain(prep.start), prep.bound))
			r.baseline, r.baseW = time.Since(baseStart), prep.base.Expanded
			preps[inst.scramble] = prep
		}

		var dom search.Domain[puzzle.Node] = search.NewBounded[puzzle.Node](puzzle.NewDomain(prep.start), prep.bound)
		if ph.tr != nil {
			dom = timeDomain(dom, &ph.clock)
		}
		sch, err := simd.ParseScheme[puzzle.Node](label)
		if err != nil {
			return err
		}
		// The balancer stays unwrapped: checkpoints read the GP pointer
		// from the concrete *simd.MatchBalancer.
		m, err := simd.NewMachine[puzzle.Node](dom, sch, simd.Options{
			P: p, Workers: workers(), MemBudget: inst.budget, CheckpointEvery: checkpointEvery,
		})
		if err != nil {
			return err
		}
		spillDir := filepath.Join(e.dir, fmt.Sprintf("spill-%d", rep))
		mgr, err := spill.NewManager[puzzle.Node](codec, spill.Config{
			Dir: spillDir, MemBudget: inst.budget, NodeBytes: wire.NodeSize[puzzle.Node](codec, dom.Root()),
		})
		if err != nil {
			return err
		}
		if ph.tr != nil {
			m.SetSpiller(&timedSpiller[puzzle.Node]{sp: mgr, tr: ph.tr})
		} else {
			m.SetSpiller(mgr)
		}
		meta := checkpoint.Meta{Domain: "puzzle", Scheme: label, Topology: "cm2"}
		var ckpts, ckptBytes int64
		m.OnCheckpoint(func(s *simd.Snapshot[puzzle.Node]) error {
			if ph.tr != nil {
				id := ph.tr.enter("checkpoint.sink")
				defer ph.tr.exit(id)
			}
			if err := checkpoint.WriteFile[puzzle.Node](ckptPath, codec, meta, s); err != nil {
				return err
			}
			fi, err := os.Stat(ckptPath)
			if err != nil {
				return err
			}
			ckpts++
			ckptBytes += fi.Size()
			return nil
		})
		if !ready {
			r.setup = time.Since(start)
		}

		rec, err := ph.runSearch(ctx, m.RunContext)
		if err == nil {
			err = checkSearch(fmt.Sprintf("%s/%d", label, inst.scramble), rec.stats, prep.base, pinned, ph.seen)
		}
		if err == nil && ckpts > 0 {
			err = checkSpool(ckptPath, codec, rec.stats.Cycles)
		}
		ph.tally.record(err)
		r.searches = append(r.searches, rec)
		ph.reps = append(ph.reps, r)

		st := mgr.Stats()
		ph.spill.Evictions += st.Evictions
		ph.spill.Faults += st.Faults
		ph.spill.BytesWritten += st.BytesWritten
		ph.spill.BytesRead += st.BytesRead
		ph.ckptCount += ckpts
		ph.ckptBytes += ckptBytes
		if err := os.RemoveAll(spillDir); err != nil {
			return err
		}
	}
	return nil
}

// checkSpool checks that the last checkpoint written decodes and is a
// prefix of the finished run.
func checkSpool(path string, codec wire.PuzzleCodec, cycles int) error {
	_, snap, err := checkpoint.ReadFile[puzzle.Node](path, codec)
	if err != nil {
		return fmt.Errorf("reading the last checkpoint: %w", err)
	}
	if snap.Cycle <= 0 || snap.Cycle > cycles || len(snap.DomainState) == 0 {
		return fmt.Errorf("last checkpoint at cycle %d with %d bytes of domain state; the run took %d cycles",
			snap.Cycle, len(snap.DomainState), cycles)
	}
	return nil
}
