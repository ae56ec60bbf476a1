package main

import (
	"bytes"
	"os"
	"testing"
)

// TestSpecMatchesBenchmarkJSON keeps the committed contract in step
// with the workload and metric tables (regenerate with --write-spec).
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := encodeSpec()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the tables; run: go run . --write-spec ../BENCHMARK.json")
	}
}

// TestCorruptReferenceFailsEveryReply proves the reply check bites:
// with every reference value off by one bit, no reply may pass.
func TestCorruptReferenceFailsEveryReply(t *testing.T) {
	w, err := findWorkload("sparse-motor")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run(runConfig{w: w, seed: 3, seconds: 0.5, out: t.TempDir(), corrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Attempted == 0 || rep.Failed != rep.Attempted {
		t.Fatalf("corrupt references: correct=%v attempted=%d failed=%d, want every reply failed",
			rep.Correct, rep.Attempted, rep.Failed)
	}
	if ok := rep.Metrics["ok_share"].Value; ok != 0 {
		t.Fatalf("ok_share = %v with corrupt references, want 0 (fail_share 1)", ok)
	}
}

// TestWorkloadsRunClean runs every workload briefly, untraced and
// traced, and expects every reply correct and every metric reported.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload over a socket")
	}
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			rep, err := run(runConfig{w: w, seed: 5, seconds: 1, trace: trace, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			var names []string
			if trace {
				for _, m := range perLayerMetrics {
					names = append(names, m.Name)
				}
			} else {
				for _, m := range endToEndMetrics {
					names = append(names, m.Name)
					if v := rep.Metrics[m.Name].Value; v <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, m.Name, v)
					}
				}
			}
			if len(rep.Metrics) != len(names) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(names))
			}
			for _, n := range names {
				if _, ok := rep.Metrics[n]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, n)
				}
			}
		}
	}
}
