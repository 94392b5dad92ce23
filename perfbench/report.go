package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics collects named values; set overwrites.
type metrics map[string]metric

// set records v.  JSON has no infinities: a latency percentile that lands
// on a failed request (+Inf, it missed every limit) reads as the largest
// float, and an undefined value (no samples) as 0.
func (m metrics) set(name string, v float64, unit string) {
	switch {
	case math.IsNaN(v):
		v = 0
	case math.IsInf(v, 1):
		v = math.MaxFloat64
	case math.IsInf(v, -1):
		v = -math.MaxFloat64
	}
	m[name] = metric{Value: v, Unit: unit}
}

// tally counts the operations a run attempted and those that failed: an
// operation fails when it returns an error or when one of its correctness
// checks does not hold.  The first few failures are kept for the log.
type tally struct {
	attempted, failed int64
	first             []string
}

// record counts one operation; a non-nil err marks it failed.
func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.first) < 5 {
		t.first = append(t.first, err.Error())
	}
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, s := range o.first {
		if len(t.first) < 5 {
			t.first = append(t.first, s)
		}
	}
}

// quantile returns the nearest-rank q-quantile of xs (0 <= q <= 1); xs is
// sorted in place.  +Inf entries (failed requests) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// tailQuantile returns the p99 of xs, or, when fewer than ten samples
// would lie beyond the p99, the highest percentile that has ten beyond it
// (never below the median).  A slowest-of-few sample is too noisy to gate
// on.  xs is sorted in place.
func tailQuantile(xs []float64) float64 {
	q := 1 - 10/float64(len(xs))
	return quantile(xs, max(0.5, min(0.99, q)))
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// printSpread prints how a per-repetition value varied within the run.
func printSpread(w io.Writer, what string, xs []float64) {
	s := append([]float64(nil), xs...)
	fmt.Fprintf(w, "%d repetitions; %s per repetition: min %.6g median %.6g max %.6g\n",
		len(s), what, quantile(s, 0), median(s), quantile(s, 1))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxRSSBytes reports the process's peak resident set size.
func maxRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// writeResult prints the metrics one per line, then the JSON result line
// the benchmark contract requires as the last line of standard output.
func writeResult(w io.Writer, t tally, m metrics) error {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%-34s %14.6g %s\n", name, m[name].Value, m[name].Unit); err != nil {
			return err
		}
	}
	share := 0.0
	if t.attempted > 0 {
		share = float64(t.failed) / float64(t.attempted)
	}
	if _, err := fmt.Fprintf(w, "%-34s %14.6g share (%d of %d operations)\n", "failed_share", share, t.failed, t.attempted); err != nil {
		return err
	}
	b, err := json.Marshal(result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   m,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
