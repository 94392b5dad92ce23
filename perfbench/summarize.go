package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// the spread printed here is the one the benchmark's bounds are set
// against.  xs is sorted in place and needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	ld := len(xs)
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (xs[j-1]*float64(n-delta) + xs[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// metricSummary is one metric over a set of runs.
type metricSummary struct {
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3 - Q1) / Median.
	Spread float64 `json:"spread"`
}

// summarizeFiles reads each file's result lines (every line that parses
// as a result) and prints, per file, each metric's median, quartiles and
// spread, then one JSON object with the same numbers keyed by file name.
func summarizeFiles(w io.Writer, paths []string) error {
	all := map[string]any{
		"nproc":            runtime.NumCPU(),
		"go":               runtime.Version(),
		"serve_rate_per_s": serveRate,
	}
	for _, path := range paths {
		results, err := readResults(path)
		if err != nil {
			return err
		}
		if len(results) < 2 {
			return fmt.Errorf("%s: %d result lines, need at least 2", path, len(results))
		}
		values := map[string][]float64{}
		units := map[string]string{}
		failed := int64(0)
		for _, r := range results {
			failed += r.Failed
			for name, m := range r.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		key := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		fmt.Fprintf(w, "%s: %d runs, %d failed operations\n", key, len(results), failed)
		sums := map[string]metricSummary{}
		for _, name := range names {
			xs := values[name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			s := metricSummary{Unit: units[name], Runs: len(xs), Median: med, Q1: q1, Q3: q3}
			if med != 0 {
				s.Spread = (q3 - q1) / med
			}
			sums[name] = s
			fmt.Fprintf(w, "  %-32s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f %s\n", name, med, q1, q3, s.Spread, s.Unit)
		}
		all[key] = sums
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		var r result
		if strings.HasPrefix(line, "{") && json.Unmarshal([]byte(line), &r) == nil && r.Metrics != nil {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}
