package main

import (
	"fmt"
	"math/rand"

	"vedliot/internal/nn"
	"vedliot/internal/optimize"
)

// workload is one traffic mix against one fleet. The fields mirror the
// vedliot-serve flags that produce the same fleet.
type workload struct {
	name string
	why  string
	// model is the zoo entry served.
	model string
	// modules is the uRECS slot population, in slot order (-modules,
	// plus "RISC-V CFU SoM" for -soc-tier).
	modules []string
	// int8 calibrates the model and serves INT8-capable replicas on the
	// quantized engine (-int8).
	int8 bool
	// artifact deploys from a .vedz packed before the timed set-up,
	// through the registry and its plan cache (-model x.vedz).
	artifact bool
	// rate is the open-loop Poisson arrival rate in req/s.
	rate float64
	// conns is the number of framed-TCP connections the generator opens.
	conns int
	// quadShare is the share of requests carrying 4 rows instead of 1.
	quadShare float64
	// poolRows is the number of distinct input rows the generator draws
	// from; each has a precomputed reference output.
	poolRows int
}

var workloads = []workload{
	{
		name: "sparse-motor",
		why: "open loop, Poisson 100 req/s of 1-row motor from a packed .vedz on 2x SMARC ARM: the engine is ~1% " +
			"of latency, so the front-door, admission and replica queues set it",
		model:    "motor",
		modules:  []string{"SMARC ARM", "SMARC ARM"},
		artifact: true,
		rate:     100,
		conns:    1,
		poolRows: 256,
	},
	{
		name: "mirror-hetero",
		why: "open loop, Poisson 300 req/s of 1- or 4-row INT8 mirror-gesture on SMARC ARM + Xavier NX + RISC-V CFU: " +
			"the cost-aware router decides latency",
		model:     "mirror-gesture",
		modules:   []string{"SMARC ARM", "Jetson Xavier NX", "RISC-V CFU SoM"},
		int8:      true,
		rate:      300,
		conns:     2,
		quadShare: 0.25,
		poolRows:  256,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// rowsFor draws the row count of one request.
func (w *workload) rowsFor(rng *rand.Rand) int {
	if w.quadShare > 0 && rng.Float64() < w.quadShare {
		return 4
	}
	return 1
}

// calibrate derives the INT8 activation schema exactly as vedliot-serve
// -int8 does.
func calibrate(g *nn.Graph) (*nn.QuantSchema, error) {
	samples, err := nn.SyntheticCalibration(g, 4)
	if err != nil {
		return nil, err
	}
	return optimize.Calibrate(g, samples)
}
