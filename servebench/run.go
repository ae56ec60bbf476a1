package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vedliot/internal/artifact"
	"vedliot/internal/inference"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
	"vedliot/internal/tensor/cpu"
	"vedliot/internal/zoo"
)

// setupRuns is how many times a run sets the stack up; setup_s and the
// setup.* parts are medians over them, and the last stack serves the
// traffic.
const setupRuns = 21

// warmUp is the traffic replayed before measuring, so the routers'
// EWMAs, the engines' arenas and the runtime's heap are in steady
// state.
const warmUp = time.Second

// requestPool is the number of distinct pre-built requests.
const requestPool = 512

// runConfig is one invocation of the benchmark.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	// out is the directory for the packed artifact and the span file.
	out string
	// corrupt spoils the reference outputs after set-up, so every reply
	// must fail its check.
	corrupt bool
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally accumulates request outcomes across phases.
type tally struct{ sent, okN, wrongN, shedN, failedN int }

func (t *tally) add(p phase) {
	okN, wrongN, shedN, failedN := p.counts()
	t.sent += len(p.samples)
	t.okN += okN
	t.wrongN += wrongN
	t.shedN += shedN
	t.failedN += failedN
}

func (t tally) fails() int { return t.wrongN + t.shedN + t.failedN }

// run prepares the inputs, sets the stack up and drives the workload:
// the measured phase for end-to-end metrics, or the traced ladder for
// per-layer ones.
func run(cfg runConfig) (report, error) {
	w := cfg.w
	rng := rand.New(rand.NewSource(cfg.seed))
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return report{}, err
	}
	var refSchema *nn.QuantSchema
	if w.int8 {
		s, err := calibrate(buildModel(w))
		if err != nil {
			return report{}, fmt.Errorf("reference calibration: %w", err)
		}
		refSchema = s
	}
	pool, err := newRefPool(w, refSchema, rng)
	if err != nil {
		return report{}, err
	}
	reqs := pool.requests(w, requestPool, rng)
	artifactPath := ""
	if w.artifact {
		g := buildModel(w)
		artifactPath = filepath.Join(cfg.out, w.model+".vedz")
		m := &artifact.Model{Graph: g, Prov: artifact.Provenance{Model: g.Name, Tool: "servebench"}}
		if err := artifact.Save(artifactPath, m); err != nil {
			return report{}, err
		}
	}

	var times []setupTimes
	var st *stack
	for i := 0; i < setupRuns; i++ {
		s, t, err := setUp(w, artifactPath, pool, &reqs[0])
		if err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, t)
		if i < setupRuns-1 {
			s.close()
		} else {
			st = s
		}
	}
	defer st.close()
	if cfg.corrupt {
		pool.corrupt()
	}

	ctx := context.Background()
	fmt.Printf("servebench %s seed %d: %s on %s, host %s\n",
		w.name, cfg.seed, w.model, strings.Join(w.modules, " + "), cpu.Summary())
	warm := driver{sched: phaseSchedule(w, warmUp, rng), reqs: reqs, pool: pool, call: st.socket}
	warm.run(ctx)

	if cfg.trace {
		return ladder(ctx, cfg, st, pool, reqs, times, rng)
	}
	seconds := time.Duration(cfg.seconds * float64(time.Second))
	d := driver{sched: phaseSchedule(w, seconds, rng), reqs: reqs, pool: pool,
		call: st.socket, power: st.sched.PowerW}
	ph := d.run(ctx)
	var t tally
	t.add(ph)
	served := float64(max(t.okN, 1))
	failShare := float64(t.fails()) / float64(max(t.sent, 1))
	vals := map[string]float64{
		"setup_s":           median(pluck(times, func(t setupTimes) float64 { return t.total })),
		"latency_p50_ms":    ph.latencyMS(0.5),
		"throughput_rps":    float64(t.okN) / ph.elapsed.Seconds(),
		"energy_mj_per_req": ph.powerW * ph.elapsed.Seconds() / served * 1000,
		"ok_share":          1 - failShare,
	}
	fmt.Printf("%d requests sent: %d correct, %d wrong, %d shed, %d failed\n", t.sent, t.okN, t.wrongN, t.shedN, t.failedN)
	fmt.Printf("  %-18s %14.4f s       median of %d set-ups, start to first correct reply\n", "setup_s", vals["setup_s"], len(times))
	fmt.Printf("  %-18s %14.4f ms      from due time, %d samples\n", "latency_p50_ms", vals["latency_p50_ms"], len(ph.samples))
	fmt.Printf("  %-18s %14.4f ms      from due time, %d samples; not gated, host stalls move it past any bound\n",
		"latency_p99_ms", ph.latencyMS(0.99), len(ph.samples))
	fmt.Printf("  %-18s %14.4f 1/s     correct replies over %.3f s\n", "throughput_rps", vals["throughput_rps"], ph.elapsed.Seconds())
	fmt.Printf("  %-18s %14.4f mJ      modeled: mean Scheduler.PowerW %.3f W x elapsed / correct replies\n",
		"energy_mj_per_req", vals["energy_mj_per_req"], ph.powerW)
	fmt.Printf("  %-18s %14.4f ratio   (wrong + shed + failed) / sent; gated as ok_share = 1 - fail_share\n", "fail_share", failShare)
	rep := report{Correct: t.wrongN == 0, Attempted: t.sent, Failed: t.fails(), Metrics: map[string]metric{}}
	for _, m := range endToEndMetrics {
		rep.Metrics[m.Name] = metric{vals[m.Name], m.Unit}
	}
	return rep, nil
}

// phaseSchedule draws the traffic of one phase of length d.
func phaseSchedule(w *workload, d time.Duration, rng *rand.Rand) schedule {
	return openSchedule(w.rate, d.Seconds(), requestPool, rng)
}

// buildModel builds the workload's zoo model.
func buildModel(w *workload) *nn.Graph {
	entry, err := zoo.Find(w.model)
	if err != nil {
		panic(err) // the workload table names zoo entries only
	}
	return entry.Build()
}

// socket sends one request over the front door's framed protocol,
// spreading requests across the dialled connections.
func (s *stack) socket(ctx context.Context, i int, _ int32, ins map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return s.clients[i%len(s.clients)].InferCtx(ctx, s.model, ins)
}

// ladder replays the workload against each layer's entry point in
// turn, from the socket down to the executable, and derives the
// per-layer metrics. The socket is driven untraced for a third of the
// run, which also yields the tail latency and the layer counters; the
// four traced layers then replay one shared schedule for a sixth of
// the run each.
func ladder(ctx context.Context, cfg runConfig, st *stack, pool *refPool, reqs []request,
	times []setupTimes, rng *rand.Rand) (report, error) {
	w := cfg.w
	untracedLen := time.Duration(cfg.seconds / 3 * float64(time.Second))
	rungLen := time.Duration(cfg.seconds / 6 * float64(time.Second))
	untracedSched := phaseSchedule(w, untracedLen, rng)
	sched := phaseSchedule(w, rungLen, rng)
	rec := newRecorder(5*len(sched.due) + 8)
	// The two lowest rungs spread requests over the host-engine
	// replicas, which every workload's fleet has, so a replica sees
	// about the load the router gave it.
	var hosts []*microserver.Server
	for _, r := range st.dep.Replicas() {
		if r.Backend() == (inference.CPUBackend{}).Name() {
			hosts = append(hosts, r.Server())
		}
	}
	if len(hosts) == 0 {
		return report{}, fmt.Errorf("fleet has no host-engine replica")
	}
	submit := func(ctx context.Context, i int, id int32, ins map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
		sub := rec.begin("cluster.submit", id, i)
		tk, err := st.sched.SubmitCtx(ctx, st.model, ins)
		rec.end(sub)
		if err != nil {
			return nil, err
		}
		return tk.Wait()
	}
	layers := []struct {
		name string
		call call
	}{
		{"serve", st.socket},
		{"cluster", submit},
		{"microserver", func(_ context.Context, i int, _ int32, ins map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
			return hosts[i%len(hosts)].InferMap(ins)
		}},
		{"inference", func(_ context.Context, i int, _ int32, ins map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
			return hosts[i%len(hosts)].Executable().Run(ins)
		}},
	}

	var t tally
	srv0, dep0, ms0 := st.srv.Stats(), st.dep.Stats(), replicaServeStats(st)
	untraced := (&driver{sched: untracedSched, reqs: reqs, pool: pool, call: st.socket}).run(ctx)
	srv1, dep1, ms1 := st.srv.Stats(), st.dep.Stats(), replicaServeStats(st)
	t.add(untraced)
	var traced phase
	for i, l := range layers {
		d := driver{sched: sched, reqs: reqs, pool: pool, call: l.call, rec: rec, span: l.name}
		d.parent = rec.begin("phase."+l.name, -1, -1)
		ph := d.run(ctx)
		rec.end(d.parent)
		t.add(ph)
		if i == 0 {
			traced = ph
		}
	}
	names := make([]string, len(layers))
	for i, l := range layers {
		names[i] = l.name
	}
	self := selfP50MS(rec.spans(), names)

	vals := map[string]float64{
		"e2e.latency_p99_ms":      untraced.latencyMS(0.99),
		"e2e.latency_samples":     float64(len(untraced.samples)),
		"serve.self_p50_ms":       self["serve"],
		"serve.rows_per_batch":    ratio(srv1.BatchedRows-srv0.BatchedRows, srv1.Batches-srv0.Batches),
		"serve.shed_share":        ratio(srv1.Overloaded-srv0.Overloaded, srv1.Requests-srv0.Requests),
		"cluster.self_p50_ms":     self["cluster"],
		"microserver.self_p50_ms": self["microserver"],
		// Stats.Submitted counts admitted requests only, so the share of
		// refused admissions is taken over admitted plus rejected.
		"cluster.rejected_share": ratio(dep1.Rejected-dep0.Rejected,
			dep1.Submitted-dep0.Submitted+dep1.Rejected-dep0.Rejected),
		"microserver.requests_per_dispatch": ratio(ms1.Requests-ms0.Requests, ms1.Batches-ms0.Batches),
		"gen.lag_p99_ms":                    untraced.lagMS(0.99),
		"trace.overhead_p50_ms":             traced.latencyMS(0.5) - untraced.latencyMS(0.5),
		"setup.build_s":                     median(pluck(times, func(t setupTimes) float64 { return t.build })),
		"setup.calibrate_s":                 median(pluck(times, func(t setupTimes) float64 { return t.calibrate })),
		"setup.deploy_s":                    median(pluck(times, func(t setupTimes) float64 { return t.deploy })),
		"setup.listen_s":                    median(pluck(times, func(t setupTimes) float64 { return t.listen })),
	}
	if st.reg != nil {
		vals["artifact.plan_compiles"] = float64(st.reg.Plans().Stats().Misses)
	}

	// Routing: each slot's share of the untraced socket phase's served
	// requests, and how the router's per-sample price compares with the
	// replica executable's measured per-sample run time.
	var servedAll int64
	for i := range dep1.Replicas {
		servedAll += dep1.Replicas[i].Served - dep0.Replicas[i].Served
	}
	one := reqs[0]
	for i, r := range st.dep.Replicas() {
		rs := dep1.Replicas[i]
		vals[fmt.Sprintf("cluster.route_share.slot%d", rs.Slot)] = ratio(rs.Served-dep0.Replicas[i].Served, servedAll)
		runMS, err := runP50MS(r.Server().Executable(), one.ins, 200*time.Millisecond)
		if err != nil {
			return report{}, fmt.Errorf("replica %d run: %w", i, err)
		}
		perSample := runMS / float64(len(one.rows))
		vals[fmt.Sprintf("cluster.estimate_ratio.slot%d", rs.Slot)] = ms(rs.Estimate()) / perSample
		if strings.HasPrefix(r.Backend(), "accel:") {
			vals["accel.modeled_ms"] = ms(r.ModeledLatency())
		}
		if p, ok := r.Server().Executable().(interface{ CyclesPerInference() uint64 }); ok {
			vals["rvbackend.cycles_per_inference"] = float64(p.CyclesPerInference())
		}
	}

	// The replica executable in isolation, one batch size at a time.
	exe := hosts[0].Executable()
	for _, b := range []int{1, 8, 32} {
		rows := make([]int, b)
		for i := range rows {
			rows[i] = i % w.poolRows
		}
		req := request{ins: pool.inputs(rows), rows: rows}
		outs, err := exe.Run(req.ins)
		t.sent++
		switch {
		case err != nil:
			t.failedN++
		case !pool.check(&req, outs):
			t.wrongN++
		default:
			t.okN++
		}
		runMS, err := runP50MS(exe, req.ins, 400*time.Millisecond)
		if err != nil {
			return report{}, fmt.Errorf("executable b%d: %w", b, err)
		}
		vals[fmt.Sprintf("inference.run_ms.b%d", b)] = runMS
	}
	vals["inference.batch_scaling"] = vals["inference.run_ms.b32"] / 32 / vals["inference.run_ms.b1"]
	g := buildModel(w)
	if err := g.InferShapes(32); err != nil {
		return report{}, err
	}
	gs, err := g.Stats()
	if err != nil {
		return report{}, err
	}
	vals["tensor.gops"] = float64(gs.Ops) / (vals["inference.run_ms.b32"] / 1000) / 1e9

	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
	if err := rec.write(path); err != nil {
		return report{}, err
	}
	fmt.Printf("untraced socket %v, then %v per traced layer; %d spans (%d dropped) in %s\n",
		untracedLen, rungLen, len(rec.spans()), rec.dropped.Load(), path)
	fmt.Printf("%d requests sent, %d correct, %d wrong, %d shed, %d failed; kernels dispatched at %s\n",
		t.sent, t.okN, t.wrongN, t.shedN, t.failedN, cpu.Best())
	rep := report{Correct: t.wrongN == 0, Attempted: t.sent, Failed: t.fails(), Metrics: map[string]metric{}}
	for _, m := range perLayerMetrics {
		rep.Metrics[m.Name] = metric{vals[m.Name], m.Unit}
		fmt.Printf("  %-34s %14.4f %s\n", m.Name, vals[m.Name], m.Unit)
	}
	return rep, nil
}

// replicaServeStats sums the replica batching servers' telemetry.
func replicaServeStats(st *stack) microserver.ServeStats {
	var sum microserver.ServeStats
	for _, r := range st.dep.Replicas() {
		s := r.Server().Stats()
		sum.Requests += s.Requests
		sum.Batches += s.Batches
	}
	return sum
}

// runP50MS times sequential runs of one executable for about budget
// (at least 3, at most 2000 runs) and returns the median in ms.
func runP50MS(exe inference.Executable, ins map[string]*tensor.Tensor, budget time.Duration) (float64, error) {
	if _, err := exe.Run(ins); err != nil {
		return 0, err
	}
	var runs []float64
	start := time.Now()
	for len(runs) < 3 || (len(runs) < 2000 && time.Since(start) < budget) {
		t0 := time.Now()
		if _, err := exe.Run(ins); err != nil {
			return 0, err
		}
		runs = append(runs, ms(time.Since(t0)))
	}
	return median(runs), nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func pluck(times []setupTimes, f func(setupTimes) float64) []float64 {
	out := make([]float64, len(times))
	for i, t := range times {
		out[i] = f(t)
	}
	return out
}
