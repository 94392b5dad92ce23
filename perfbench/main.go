// Command perfbench is the repository's benchmark.  It runs one named
// workload for a fixed time, checks that every output is correct, and
// prints its metrics by name and unit, ending with one JSON result line:
//
//	bash perfbench/run.sh --workload table1-synthetic --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics listed in
// BENCHMARK.json.  With --trace 1 it runs the workload untraced for the
// first half of the time and traced for the second, and reports the
// per-layer metrics: self times taken from spans recorded around the calls
// into each layer's public seam, counts at the same boundaries, and the
// tracing overhead.  The spans are written to the work directory at exit.
//
// --summarize reads result lines (one JSON object per line) and prints
// each metric's median and quartiles; sweep.sh uses it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeed is the seed whose schedule fingerprints are pinned.
const defaultSeed = 1

// env is what a workload run receives.
type env struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	dir     string    // scratch directory for spill segments, checkpoints, spans
	tiny    bool      // test-sized inputs; pinned fingerprints do not apply
	out     io.Writer // the run's report lines
	log     io.Writer
}

// workers is the engine's Workers setting: one per CPU, at most 8.
func workers() int { return min(runtime.NumCPU(), 8) }

// outcome is what a workload run returns.
type outcome struct {
	tally   tally
	metrics metrics
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(ctx context.Context, e *env) (outcome, error)
}

var workloads = []workload{
	{"table1-synthetic", runTable1},
	{"puzzle-membound", runPuzzle},
	{"serve-mixed", runServe},
	{"steal-2node", runSteal},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "how long the run measures")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workDir := fs.String("work-dir", ".bench_build/perfbench-work", "scratch directory for spill segments, checkpoints and spans")
	summarize := fs.Bool("summarize", false, "summarize result lines read from the files named as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summarize {
		if err := summarizeFiles(stdout, fs.Args()); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	for _, w := range workloads {
		if w.name != *name {
			continue
		}
		e := &env{
			seed:    *seed,
			seconds: time.Duration(*seconds * float64(time.Second)),
			traced:  *traceMode == 1,
			log:     stderr,
		}
		if err := runOne(w, e, *workDir, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
	return 2
}

// runOne runs one workload in a fresh scratch directory under workDir and
// prints its result.
func runOne(w workload, e *env, workDir string, stdout io.Writer) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e.dir, e.out = dir, stdout
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %t nproc %d workers %d %s\n",
		w.name, e.seed, e.seconds.Seconds(), e.traced, runtime.NumCPU(), workers(), runtime.Version())
	out, err := w.run(context.Background(), e)
	if err != nil {
		return err
	}
	for _, s := range out.tally.first {
		fmt.Fprintf(e.log, "perfbench: %s: failed operation: %s\n", w.name, s)
	}
	if out.tally.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	if e.traced {
		out.metrics.complete(perLayer)
	}
	return writeResult(stdout, out.tally, out.metrics)
}

// spansPath names the file a traced run writes its spans to: next to the
// scratch directory, so it survives the run.
func spansPath(e *env, workload string) string {
	return filepath.Join(filepath.Dir(e.dir), fmt.Sprintf("spans-%s-seed%d.jsonl", workload, e.seed))
}
