package bench

import (
	"context"
	"fmt"
	"time"

	"vedliot/internal/cluster"
	"vedliot/internal/inference"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/serve"
	"vedliot/internal/tensor"
)

// ServeStudy exercises the network front door at both of its scales,
// and checks that it does not hold a lone request:
//
//  1. Million-client closed loop — the discrete-event simulator drives
//     a self-throttling client population (exact virtual time, so the
//     result is machine-independent) against a 4-replica edge fleet,
//     comparing adaptive batching (rows coalesced per dispatch) with
//     batch-size-1 passthrough at the same offered load: throughput,
//     tail latency (p50/p99/p999), shed fraction and SLO-violation
//     rate.
//  2. Real sockets — a framed-TCP server over a uRECS fleet takes a
//     closed-loop load run (thousands of client goroutines over a
//     connection pool) with the socket-boundary batcher on vs off,
//     plus a bitwise parity probe against the in-process reference
//     engine.
//  3. Lone requests — sequential requests to an idle socket fleet,
//     which the work-conserving batcher must send at once rather than
//     hold for company.
//
// The simulated metrics (serve_p99_ms, serve_slo_violation_rate,
// serve_batch_coalescing) are deterministic and pinned by the perf
// gate; the socket runs contribute ratio checks that survive machine
// differences (serve_lone_hold_ratio is gated too).
func ServeStudy() (*Report, error) {
	r := newReport("Platform — network front door: adaptive batching at the socket boundary")

	// --- Part 1: closed-loop simulation at fleet scale ----------------
	// An edge replica: 1.5ms base service plus 150µs per extra row in a
	// batch, so coalescing amortizes the fixed per-dispatch cost. Four
	// replicas give 2.7k req/s unbatched and ~21k req/s at batch 32;
	// think time scales with the population so the offered load (~13k
	// req/s) sits between the two capacities at every fidelity.
	clients := pick(1_000_000, 50_000)
	fleet := make([]cluster.SimReplica, 4)
	for i := range fleet {
		fleet[i] = cluster.SimReplica{
			Name: fmt.Sprintf("edge%d", i), Service: 1500 * time.Microsecond,
			PerItem: 150 * time.Microsecond, IdleW: 5, MaxW: 25,
		}
	}
	base := cluster.ClosedLoopConfig{
		Clients:           clients,
		RequestsPerClient: 2,
		Think:             time.Duration(clients) * 77 * time.Microsecond,
		SLO:               50 * time.Millisecond,
		QueueCap:          512,
		Seed:              11,
	}
	batched, passthru := base, base
	batched.MaxBatch = 32
	passthru.MaxBatch = 1
	bres, err := cluster.SimulateClosedLoop(fleet, batched)
	if err != nil {
		return nil, err
	}
	pres, err := cluster.SimulateClosedLoop(fleet, passthru)
	if err != nil {
		return nil, err
	}
	simSpeedup := 0.0
	if pres.Throughput > 0 {
		simSpeedup = bres.Throughput / pres.Throughput
	}
	r.linef("closed-loop sim: %d clients x %d requests over %d replicas (queue %d, SLO %v)",
		clients, base.RequestsPerClient, len(fleet), base.QueueCap, base.SLO)
	r.linef("%-12s %12s %10s %10s %10s %10s %8s %10s", "policy", "throughput", "p50", "p99", "p999", "slo-rate", "shed", "rows/batch")
	for _, row := range []struct {
		name string
		res  cluster.ClosedLoopResult
	}{{"batch-1", pres}, {"adaptive-32", bres}} {
		r.linef("%-12s %9.0f/s %10v %10v %10v %9.4f %8d %10.1f", row.name, row.res.Throughput,
			row.res.Latency.P50.Round(time.Microsecond), row.res.Latency.P99.Round(time.Microsecond),
			row.res.Latency.P999.Round(time.Microsecond), row.res.SLOViolationRate, row.res.Shed, row.res.MeanBatch)
	}
	r.linef("sim throughput adaptive vs batch-1: %.2fx", simSpeedup)
	r.metric("serve_sim_clients", "", float64(clients))
	r.metric("serve_sim_throughput_rps", "req/s", bres.Throughput)
	r.metric("serve_sim_batch1_throughput_rps", "req/s", pres.Throughput)
	r.metric("serve_sim_speedup", "x", simSpeedup)
	r.metric("serve_p50_ms", "ms", float64(bres.Latency.P50)/1e6)
	r.metric("serve_p99_ms", "ms", float64(bres.Latency.P99)/1e6)
	r.metric("serve_p999_ms", "ms", float64(bres.Latency.P999)/1e6)
	r.metric("serve_slo_violation_rate", "", bres.SLOViolationRate)
	r.metric("serve_batch_coalescing", "rows/batch", bres.MeanBatch)
	r.check("sim: adaptive batching sustains >=2x batch-1 throughput", simSpeedup >= 2)
	r.check("sim: adaptive batching does not worsen the SLO-violation rate", bres.SLOViolationRate <= pres.SLOViolationRate)
	r.check("sim: dispatches coalesce >=4 rows per batch", bres.MeanBatch >= 4)
	r.check("sim: batch-1 passthrough sheds under the same load", pres.Shed > 0)

	// --- Part 2: real sockets over the uRECS fleet --------------------
	socketClients := pick(10000, 400)
	conns := pick(32, 8)
	// LeNet-300-100: dense layers whose batch-1 inference is
	// matrix-vector work while a coalesced batch runs as blocked GEMM,
	// so the engines only reach their throughput when the front door
	// hands them full batches — the workload the adaptive batcher is
	// for.
	g := nn.MLP("lenet-300-100", []int{784, 300, 100, 10}, nn.BuildOptions{Weights: true, Seed: 1})
	ins, err := nn.SyntheticInput(g, 1, 5)
	if err != nil {
		return nil, err
	}
	eng, err := inference.Compile(g)
	if err != nil {
		return nil, err
	}
	want, err := eng.Run(ins)
	if err != nil {
		return nil, err
	}

	run := func(policy serve.BatchPolicy) (serve.LoadResult, serve.ServerStats, float64, error) {
		srv, pool, stop, err := socketFleet(g, policy, conns)
		if err != nil {
			return serve.LoadResult{}, serve.ServerStats{}, 0, err
		}
		defer stop()
		// Parity probe through the full framed path before the load.
		outs, err := pool.InferCtx(context.Background(), g.Name, ins)
		if err != nil {
			return serve.LoadResult{}, serve.ServerStats{}, 0, err
		}
		parity, _ := tensor.MaxAbsDiff(want[g.Outputs[0]], outs[g.Outputs[0]])
		res, err := serve.RunClosedLoop(pool, serve.LoadConfig{
			Model:             g.Name,
			Clients:           socketClients,
			RequestsPerClient: 2,
			Think:             25 * time.Millisecond,
			SLO:               time.Second,
			Retry:             true,
			Inputs:            func(int) map[string]*tensor.Tensor { return ins },
			Seed:              23,
		})
		return res, srv.Stats(), parity, err
	}

	pLoad, pStats, pParity, err := run(serve.BatchPolicy{MaxBatch: 1})
	if err != nil {
		return nil, err
	}
	bLoad, bStats, bParity, err := run(serve.BatchPolicy{MaxBatch: 64, MaxDelay: time.Millisecond})
	if err != nil {
		return nil, err
	}
	speedup := 0.0
	if pLoad.Throughput > 0 {
		speedup = bLoad.Throughput / pLoad.Throughput
	}
	shedFrac := 0.0
	if bLoad.Requests > 0 {
		shedFrac = float64(bLoad.Shed) / float64(bLoad.Requests)
	}
	r.linef("")
	r.linef("framed TCP: %d clients x 2 requests over %d pooled conns, 2x SMARC ARM fleet", socketClients, conns)
	r.linef("%-12s %12s %10s %10s %10s %8s %8s %10s", "policy", "throughput", "p50", "p99", "p999", "shed", "failed", "rows/batch")
	for _, row := range []struct {
		name  string
		load  serve.LoadResult
		stats serve.ServerStats
	}{{"batch-1", pLoad, pStats}, {"adaptive-64", bLoad, bStats}} {
		r.linef("%-12s %9.0f/s %10v %10v %10v %8d %8d %10.1f", row.name, row.load.Throughput,
			row.load.Latency.P50.Round(time.Microsecond), row.load.Latency.P99.Round(time.Microsecond),
			row.load.Latency.P999.Round(time.Microsecond), row.load.Shed, row.load.Failed, row.stats.MeanBatch)
	}
	r.linef("socket throughput adaptive vs batch-1: %.2fx", speedup)
	r.metric("serve_throughput_rps", "req/s", bLoad.Throughput)
	r.metric("serve_batch1_throughput_rps", "req/s", pLoad.Throughput)
	r.metric("serve_batch_speedup", "x", speedup)
	r.metric("serve_socket_p50_ms", "ms", float64(bLoad.Latency.P50)/1e6)
	r.metric("serve_socket_p99_ms", "ms", float64(bLoad.Latency.P99)/1e6)
	r.metric("serve_socket_p999_ms", "ms", float64(bLoad.Latency.P999)/1e6)
	r.metric("serve_socket_slo_violation_rate", "", bLoad.SLOViolationRate)
	r.metric("serve_socket_coalescing", "rows/batch", bStats.MeanBatch)
	r.metric("serve_shed_fraction", "", shedFrac)

	speedupFloor, coalesceFloor := 2.0, 4.0
	if Quick() {
		speedupFloor, coalesceFloor = 1.2, 1.5
	}
	r.check("socket: bitwise parity with the reference engine", pParity == 0 && bParity == 0)
	r.check("socket: zero hard failures under load", pLoad.Failed == 0 && bLoad.Failed == 0)
	r.check(fmt.Sprintf("socket: adaptive batching sustains >=%.1fx batch-1 throughput", speedupFloor), speedup >= speedupFloor)
	r.check(fmt.Sprintf("socket: dispatches coalesce >=%.1f rows per batch", coalesceFloor), bStats.MeanBatch >= coalesceFloor)

	// --- Part 3: lone requests on an idle fleet -----------------------
	// The front door holds a request only while every replica is busy.
	// Sequential requests spaced apart always find an idle fleet, so
	// they must not wait for company: a generous MaxDelay makes any
	// such wait plain in their latency.
	const loneDelay = 50 * time.Millisecond
	lone, err := loneLatencies(g, ins, serve.BatchPolicy{MaxBatch: 64, MaxDelay: loneDelay}, 20, 5*time.Millisecond)
	if err != nil {
		return nil, err
	}
	loneP50 := cluster.Summarize(lone).P50
	holdRatio := float64(loneP50) / float64(loneDelay)
	r.linef("")
	r.linef("lone requests: %d sequential, %v apart, on an idle 2x SMARC ARM fleet (max delay %v): p50 %v",
		len(lone), 5*time.Millisecond, loneDelay, loneP50.Round(time.Microsecond))
	r.metric("serve_lone_p50_ms", "ms", float64(loneP50)/1e6)
	r.metric("serve_lone_hold_ratio", "of max delay", holdRatio)
	r.check("socket: a lone request on an idle fleet is not held for company", holdRatio < 0.1)
	return r, nil
}

// socketFleet serves g on a 2x SMARC ARM uRECS fleet behind a framed-TCP
// front door with the given batching policy, and dials a pool of conns
// connections to it. stop tears down the pool, server and scheduler.
func socketFleet(g *nn.Graph, policy serve.BatchPolicy, conns int) (*serve.Server, *serve.Pool, func(), error) {
	chassis := microserver.NewURECS()
	for slot := 0; slot < 2; slot++ {
		m, err := microserver.FindModule("SMARC ARM")
		if err != nil {
			return nil, nil, nil, err
		}
		if err := chassis.Insert(slot, m); err != nil {
			return nil, nil, nil, err
		}
	}
	// Replicas run tickets exactly as handed, so the engines see the
	// batches the front door built.
	sched := cluster.NewScheduler(chassis, cluster.Config{QueueDepth: 512})
	if _, err := sched.Deploy(g); err != nil {
		sched.Close()
		return nil, nil, nil, err
	}
	srv, err := serve.Listen("127.0.0.1:0", sched, serve.Config{Batch: policy})
	if err != nil {
		sched.Close()
		return nil, nil, nil, err
	}
	pool, err := serve.DialPool(srv.Addr(), "", conns)
	if err != nil {
		srv.Close()
		sched.Close()
		return nil, nil, nil, err
	}
	stop := func() {
		pool.Close()
		srv.Close()
		sched.Close()
	}
	return srv, pool, stop, nil
}

// loneLatencies sends n requests one at a time, gap apart, through a
// fresh socket fleet and returns each request's latency.
func loneLatencies(g *nn.Graph, ins map[string]*tensor.Tensor, policy serve.BatchPolicy, n int, gap time.Duration) ([]time.Duration, error) {
	_, pool, stop, err := socketFleet(g, policy, 1)
	if err != nil {
		return nil, err
	}
	defer stop()
	lats := make([]time.Duration, n)
	for i := range lats {
		time.Sleep(gap)
		start := time.Now()
		if _, err := pool.InferCtx(context.Background(), g.Name, ins); err != nil {
			return nil, fmt.Errorf("lone request %d: %w", i, err)
		}
		lats[i] = time.Since(start)
	}
	return lats, nil
}
