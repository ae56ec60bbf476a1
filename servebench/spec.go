package main

import (
	"bytes"
	"encoding/json"
)

// spec is the benchmark contract written to BENCHMARK.json at the root
// of the repository: how to run the benchmark, its workloads and the
// metrics every run prints. The tables below are the single source of
// truth; `--write-spec` regenerates the file and the package test
// fails when the committed file has drifted from them.
type spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []endToEnd    `json:"end_to_end"`
	PerLayer   []perLayer    `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// endToEnd is a metric a user of the serving stack sees. Bound is the
// share of the parent's median by which it may worsen before a change
// counts as a regression.
type endToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// perLayer is a metric of one module on the request path, reported by
// the traced run. It carries no bound.
type perLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one run measures.
const runSeconds = 45

var endToEndMetrics = []endToEnd{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"energy_mj_per_req", "mJ", "lower", 0.25},
	{"ok_share", "ratio", "higher", 0.01},
}

var perLayerMetrics = []perLayer{
	{"e2e.latency_p99_ms", "ms", "lower"},
	{"e2e.latency_samples", "count", "higher"},
	{"serve.self_p50_ms", "ms", "lower"},
	{"serve.rows_per_batch", "rows", "higher"},
	{"serve.shed_share", "ratio", "lower"},
	{"cluster.self_p50_ms", "ms", "lower"},
	{"cluster.route_share.slot0", "ratio", "higher"},
	{"cluster.route_share.slot1", "ratio", "higher"},
	{"cluster.route_share.slot2", "ratio", "higher"},
	{"cluster.estimate_ratio.slot0", "ratio", "lower"},
	{"cluster.estimate_ratio.slot1", "ratio", "lower"},
	{"cluster.estimate_ratio.slot2", "ratio", "lower"},
	{"cluster.rejected_share", "ratio", "lower"},
	{"microserver.self_p50_ms", "ms", "lower"},
	{"microserver.requests_per_dispatch", "requests", "higher"},
	{"inference.run_ms.b1", "ms", "lower"},
	{"inference.run_ms.b8", "ms", "lower"},
	{"inference.run_ms.b32", "ms", "lower"},
	{"inference.batch_scaling", "ratio", "lower"},
	{"tensor.gops", "GOP/s", "higher"},
	{"accel.modeled_ms", "ms", "lower"},
	{"rvbackend.cycles_per_inference", "cycles", "lower"},
	{"setup.build_s", "s", "lower"},
	{"setup.calibrate_s", "s", "lower"},
	{"setup.deploy_s", "s", "lower"},
	{"setup.listen_s", "s", "lower"},
	{"artifact.plan_compiles", "count", "lower"},
	{"gen.lag_p99_ms", "ms", "lower"},
	{"trace.overhead_p50_ms", "ms", "lower"},
}

// benchSpec assembles the contract from the tables.
func benchSpec() spec {
	s := spec{
		Command:    []string{"bash", "servebench/run.sh"},
		Paths:      []string{"servebench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadDoc{w.name, w.why})
	}
	return s
}

// encodeSpec renders the contract as BENCHMARK.json bytes.
func encodeSpec() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(benchSpec()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
