package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
)

// spec is the part of BENCHMARK.json the benchmark reads: each
// workload's load shape and the metric lists a result must carry.
type spec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// shape is one workload's dataset and offered load. It is parsed from
// the key=value tokens of the workload's "why" line, so the record and
// the run cannot disagree and both commits of a comparison see the same
// absolute load.
type shape struct {
	Scale   float64 // fraction of the paper's 300M-user workload
	Setups  int     // fresh engines loaded per run; the last is measured
	Window  int     // stream: outstanding SubmitUnique calls
	Clients int     // rpc: goroutines calling blocking MatchUnique
	QPS     float64 // churn: offered query rate, queries/s
	UPS     float64 // churn: offered update rate, updates/s
}

var tokenRE = regexp.MustCompile(`\b(scale|setups|window|clients|qps|ups)=([0-9.]+)`)

// required lists the tokens each workload's "why" must state.
var required = map[string][]string{
	"stream": {"scale", "setups", "window"},
	"rpc":    {"scale", "setups", "clients"},
	"churn":  {"scale", "setups", "qps", "ups"},
}

// loadSpec reads BENCHMARK.json and returns it with the load shape of
// the named workload.
func loadSpec(path, workload string) (*spec, shape, error) {
	var sh shape
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, sh, fmt.Errorf("read spec: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, sh, fmt.Errorf("parse %s: %w", path, err)
	}
	need, known := required[workload]
	if !known {
		return nil, sh, fmt.Errorf("unknown workload %q", workload)
	}
	var why string
	for _, w := range sp.Workloads {
		if w.Name == workload {
			why = w.Why
		}
	}
	if why == "" {
		return nil, sh, fmt.Errorf("%s lists no workload %q", path, workload)
	}
	vals := map[string]float64{}
	for _, m := range tokenRE.FindAllStringSubmatch(why, -1) {
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil || v <= 0 {
			return nil, sh, fmt.Errorf("workload %s: bad %s=%s", workload, m[1], m[2])
		}
		vals[m[1]] = v
	}
	for _, k := range need {
		if _, ok := vals[k]; !ok {
			return nil, sh, fmt.Errorf("workload %s: its why names no %s=", workload, k)
		}
	}
	sh = shape{
		Scale:   vals["scale"],
		Setups:  int(vals["setups"]),
		Window:  int(vals["window"]),
		Clients: int(vals["clients"]),
		QPS:     vals["qps"],
		UPS:     vals["ups"],
	}
	return &sp, sh, nil
}
