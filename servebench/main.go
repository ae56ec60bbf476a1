// Command servebench is the serving benchmark of the repository. It
// builds the stack `vedliot-serve -listen` ships — a uRECS fleet
// behind the framed-TCP front door, at the CLI's default settings — and
// drives it over a localhost socket with one of its open-loop workloads,
// checking every reply against precomputed reference outputs.
//
// Usage:
//
//	bash servebench/run.sh --workload sparse-motor --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// replays the workload against each layer's entry point in turn and
// prints the per-layer metrics, writing the recorded spans under
// .bench_build/servebench-out. The last line of standard output is the JSON result.
// --write-spec regenerates BENCHMARK.json from the tables in spec.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// outDir is where a run writes the packed artifact and the span file,
// relative to the checkout root the benchmark runs from.
const outDir = ".bench_build/servebench-out"

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed of the generated inputs and traffic")
	seconds := flag.Float64("seconds", runSeconds, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1: traced ladder run reporting the per-layer metrics")
	writeSpec := flag.String("write-spec", "", "write the BENCHMARK.json contract to this path and exit")
	flag.Parse()

	if *writeSpec != "" {
		data, err := encodeSpec()
		if err == nil {
			err = os.WriteFile(*writeSpec, data, 0o644)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("want --seconds > 0 and --trace 0 or 1"))
	}
	rep, err := run(runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: outDir})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(1)
}
