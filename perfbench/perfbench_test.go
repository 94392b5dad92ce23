package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	msim "simdtree/internal/metrics"
	"simdtree/internal/search"
)

func tinyEnv(t *testing.T, traced bool) *env {
	t.Helper()
	return &env{seed: defaultSeed, seconds: 200 * time.Millisecond, traced: traced, tiny: true, dir: t.TempDir(), log: os.Stderr}
}

// runTiny runs one workload at test size and returns its parsed result.
func runTiny(t *testing.T, w workload, traced bool) result {
	t.Helper()
	e := tinyEnv(t, traced)
	var out bytes.Buffer
	if err := runOne(w, e, t.TempDir(), &out); err != nil {
		t.Fatalf("%s: %v\n%s", w.name, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", w.name, err, out.String())
	}
	return r
}

// TestSmoke runs every workload at test size, untraced and traced, and
// checks that every named metric is emitted with its unit and that every
// operation was correct.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				r := runTiny(t, w, traced)
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("correct %t, %d of %d operations failed", r.Correct, r.Failed, r.Attempted)
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s missing", d.name)
					} else if m.Unit != d.unit {
						t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
				}
			})
		}
	}
}

// TestLayersExercised pins which workload measures which layer: a layer
// metric the README maps to a workload must be non-zero on it.
func TestLayersExercised(t *testing.T) {
	want := map[string][]string{
		"table1-synthetic": {"simd.self_ns_per_node", "simd.balance_ns_per_phase", "simd.cycles", "synthetic.expand_ns_per_node", "synthetic.dfs_ns_per_node", "runtime.alloc_bytes_per_node"},
		"puzzle-membound":  {"simd.self_ns_per_node", "puzzle.expand_ns_per_node", "puzzle.dfs_ns_per_node", "spill.evictions", "spill.self_s", "spill.us_per_roundtrip", "checkpoint.count", "checkpoint.sink_s"},
		"serve-mixed":      {"server.run_ms_p50", "traffic.http_overhead_ms_p50", "simd.cycles"},
		"steal-2node":      {"steal.rpcs_per_cycle", "steal.bytes_per_cycle", "steal.step_us", "steal.flags_us", "steal.wall_over_local", "checkpoint.bytes"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := runTiny(t, w, true)
			for _, name := range want[w.name] {
				if r.Metrics[name].Value <= 0 {
					t.Errorf("%s = %g, want > 0", name, r.Metrics[name].Value)
				}
			}
			// A repeat is a cache hit when its spec has finished and a
			// collapse when it is still running.
			if w.name == "serve-mixed" && r.Metrics["server.cache_hit_share"].Value+r.Metrics["traffic.collapse_share"].Value <= 0 {
				t.Error("no repeat was answered from the cache or collapsed")
			}
		})
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the workloads and metric
// tables the program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %s, the program's is %s", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d is %+v, the program's is %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d is %+v, the program's is %+v", i, m, d)
		}
	}
}

// TestWrongFingerprintFails checks that a schedule that differs from the
// pinned one, or from the serial baseline, is a failed operation.
func TestWrongFingerprintFails(t *testing.T) {
	st := msim.Stats{W: 100, Cycles: 10, LBPhases: 3, Transfers: 40}
	base := search.Result{Expanded: 100}
	pinned := map[string]fingerprint{"GP-DK": {100, 10, 3, 40}}
	if err := checkSearch("GP-DK", st, base, pinned, map[string]fingerprint{}); err != nil {
		t.Fatalf("matching schedule rejected: %v", err)
	}
	var tl tally
	wrongPin := map[string]fingerprint{"GP-DK": {100, 10, 3, 41}}
	tl.record(checkSearch("GP-DK", st, base, wrongPin, map[string]fingerprint{}))
	tl.record(checkSearch("GP-DK", st, search.Result{Expanded: 99}, nil, map[string]fingerprint{}))
	seen := map[string]fingerprint{"GP-DK": {100, 11, 3, 40}}
	tl.record(checkSearch("GP-DK", st, base, nil, seen))
	if tl.attempted != 3 || tl.failed != 3 {
		t.Errorf("%d of %d operations failed, want 3 of 3", tl.failed, tl.attempted)
	}

	local := st
	local.Tpar = 5
	if err := checkSteal("GP-DK", st, local, base, nil, map[string]fingerprint{}); err == nil {
		t.Error("distributed stats that differ from the local run's were accepted")
	}
}

// TestDivergedResponseFails checks that two responses for one cache key
// whose stats differ, and two different bodies for one collapsed job id,
// are failed operations.
func TestDivergedResponseFails(t *testing.T) {
	doc := func(id, key string, cycles int) []byte {
		b, err := json.Marshal(map[string]any{
			"id": id, "status": "done", "cache_key": key,
			"spec":  map[string]any{"domain": "synthetic", "scheme": "GP-DK", "p": 4, "topology": "cm2", "synthetic": map[string]any{"w": 100, "seed": 1}},
			"stats": msim.Stats{W: 100, Cycles: cycles},
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	v := newVerifier()
	var tl tally
	for _, body := range [][]byte{doc("j1", "k", 10), doc("j2", "k", 10)} {
		_, _, err := v.check(opRead, body)
		tl.record(err)
	}
	if tl.failed != 0 {
		t.Fatalf("identical results rejected: %v", tl.first)
	}
	_, _, err := v.check(opRead, doc("j3", "k", 11))
	tl.record(err)
	b := doc("j1", "k", 10)
	_, _, err = v.check(opWrite, append(b[:len(b):len(b)], ' '))
	tl.record(err)
	_, _, err = v.check(opWrite, doc("j4", "k2", 10)[:20])
	tl.record(err)
	if tl.failed != 3 {
		t.Errorf("%d of %d operations failed, want 3 (diverged stats, diverged collapsed body, truncated body): %v", tl.failed, tl.attempted, tl.first)
	}
	wrongW := doc("j5", "k3", 10)
	var m map[string]any
	if err := json.Unmarshal(wrongW, &m); err != nil {
		t.Fatal(err)
	}
	m["stats"] = msim.Stats{W: 99}
	wrongW, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.check(opWrite, wrongW); err == nil {
		t.Error("a result whose W differs from the spec's tree was accepted")
	}
}

// TestTracedRunsUnchanged checks that tracing does not change the program
// it measures: the traced phases of table1-synthetic and puzzle-membound
// produce the same stats as the untraced ones, and puzzle-membound writes
// byte-identical checkpoints (the domain wrapper forwards its state, and
// the balancer stays unwrapped where checkpoints are taken).
func TestTracedRunsUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name  string
		phase func(context.Context, *env, *enginePhase, time.Duration) error
	}{
		{"table1-synthetic", table1Phase},
		{"puzzle-membound", puzzlePhase},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stats [2][]msim.Stats
			var spools [2][]byte
			for i, traced := range []bool{false, true} {
				e := tinyEnv(t, traced)
				ph := &enginePhase{seen: map[string]fingerprint{}}
				if traced {
					ph.tr = newTracer()
				}
				if err := tc.phase(context.Background(), e, ph, 0); err != nil {
					t.Fatal(err)
				}
				if ph.tally.failed != 0 {
					t.Fatalf("traced %t: %v", traced, ph.tally.first)
				}
				for _, r := range ph.reps {
					for _, s := range r.searches {
						stats[i] = append(stats[i], s.stats)
					}
				}
				b, err := os.ReadFile(filepath.Join(e.dir, "spool.sckp"))
				if err != nil && !errors.Is(err, os.ErrNotExist) {
					t.Fatal(err)
				}
				spools[i] = b
			}
			if len(stats[0]) == 0 || len(stats[0]) != len(stats[1]) {
				t.Fatalf("%d untraced and %d traced searches", len(stats[0]), len(stats[1]))
			}
			for j := range stats[0] {
				if stats[0][j] != stats[1][j] {
					t.Errorf("search %d: traced stats %+v, untraced %+v", j, stats[1][j], stats[0][j])
				}
			}
			if !bytes.Equal(spools[0], spools[1]) {
				t.Errorf("traced checkpoint (%d bytes) differs from the untraced one (%d bytes)", len(spools[1]), len(spools[0]))
			}
			if tc.name == "puzzle-membound" && len(spools[0]) == 0 {
				t.Error("no checkpoint was written")
			}
		})
	}
}

// TestQuartiles checks the quartiles against Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(append([]float64(nil), tc.xs...))
		if q1 != tc.q1 || q3 != tc.q3 { //lint:allow floateq exact quartiles of small integers
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}
