package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"tagmatch/internal/obs"
)

// metric is one reported value and the number of samples behind it.
type metric struct {
	value float64
	n     int
}

// metrics maps metric names to values; report checks them against the
// names and units BENCHMARK.json lists.
type metrics map[string]metric

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histDelta returns the samples h recorded after base: the engine's
// histograms are cumulative, so a window's distribution is the bucket
// counts of the later snapshot minus those of the earlier one.
func histDelta(base, h obs.HistSnapshot) obs.HistSnapshot {
	prior := map[int64]uint64{}
	for _, b := range base.Buckets {
		prior[b.Upper] = b.Count
	}
	out := obs.HistSnapshot{Count: h.Count - base.Count, Sum: h.Sum - base.Sum}
	// A maximum above every earlier sample was recorded in the window
	// and is exact; otherwise Quantile reports the top bucket's bound.
	if h.Max > base.Max {
		out.Max = h.Max
	}
	for _, b := range h.Buckets {
		if n := b.Count - prior[b.Upper]; n > 0 {
			out.Buckets = append(out.Buckets, obs.Bucket{Upper: b.Upper, Count: n})
		}
	}
	return out
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric BENCHMARK.json lists for this run, one per
// line with its unit and sample count, then the result line. A listed
// metric the run did not produce, or a value that is not a finite
// number, is an error: the record and the code must not drift apart.
func report(w io.Writer, list []metricSpec, m metrics, correct bool, attempted, failed int64) error {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, ms := range list {
		v, ok := m[ms.Name]
		if !ok {
			return fmt.Errorf("metric %s is listed but was not measured", ms.Name)
		}
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return fmt.Errorf("metric %s is not a number: %v", ms.Name, v.value)
		}
		fmt.Fprintf(w, "metric %-34s %14.6g %-8s n=%d\n", ms.Name, v.value, ms.Unit, v.n)
		res.Metrics[ms.Name] = resultValue{Value: v.value, Unit: ms.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
