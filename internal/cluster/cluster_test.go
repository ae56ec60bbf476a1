package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"vedliot/internal/inference"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// urecsFleet builds the paper's far-edge chassis with a heterogeneous
// 3-module fleet: a plain ARM module (host CPU engine), a Jetson Xavier
// NX and a Coral SoM (two distinct accel device models).
func urecsFleet(t *testing.T) *microserver.Chassis {
	t.Helper()
	c := microserver.NewURECS()
	for slot, name := range []string{"SMARC ARM", "Jetson Xavier NX", "Coral SoM"} {
		m, err := microserver.FindModule(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(slot, m); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func gestureModel() *nn.Graph {
	return nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
}

func gestureInput(seed int) *tensor.Tensor {
	in := tensor.New(tensor.FP32, 1, 1, 16, 16)
	for i := range in.F32 {
		in.F32[i] = float32((i*3+seed*7)%17)/17 - 0.5
	}
	return in
}

// gatedExe wraps an executable so tests can hold a replica busy: every
// Run blocks until the gate channel yields.
type gatedExe struct {
	inner inference.Executable
	gate  chan struct{}
}

func (e gatedExe) Run(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	<-e.gate
	return e.inner.Run(in)
}

// gateReplicas rebinds every replica of d to a server whose runs wait
// until the returned release (idempotent) is called. Call it after the
// deploy warm-up and before the first Submit: the admission queue
// hand-off then orders the rebind before the router's first read of a
// replica's server.
func gateReplicas(t *testing.T, d *Deployment, g *nn.Graph) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	for _, r := range d.replicas {
		old := r.server
		srv, err := microserver.ServeCompiled(g, gatedExe{inner: old.Executable(), gate: gate}, old.Backend())
		if err != nil {
			t.Fatal(err)
		}
		r.server = srv
		old.Close()
	}
	return release
}

func TestDeployHeterogeneousFleetParity(t *testing.T) {
	sched := NewScheduler(urecsFleet(t), Config{})
	defer sched.Close()
	g := gestureModel()
	dep, err := sched.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Replicas()) != 3 {
		t.Fatalf("deployed %d replicas, want 3", len(dep.Replicas()))
	}
	backends := map[string]bool{}
	for _, r := range dep.Replicas() {
		backends[r.Backend()] = true
	}
	for _, want := range []string{"cpu-engine", "accel:Xavier NX", "accel:EdgeTPU SoM"} {
		if !backends[want] {
			t.Errorf("fleet missing backend %s (have %v)", want, backends)
		}
	}
	// Warm-up exercised every backend end to end.
	for _, rs := range dep.Stats().Replicas {
		if rs.Served < 1 {
			t.Errorf("replica %d (%s) served %d requests after warmup, want >= 1", rs.ID, rs.Backend, rs.Served)
		}
	}
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < 6; seed++ {
		in := gestureInput(seed)
		want, err := eng.RunSingle(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sched.InferSingle("", in)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
			t.Errorf("seed %d: fleet result diverges from reference engine by %g", seed, d)
		}
	}
}

func TestSubmitWaitAsync(t *testing.T) {
	sched := NewScheduler(urecsFleet(t), Config{QueueDepth: 128})
	defer sched.Close()
	g := gestureModel()
	dep, err := sched.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in := gestureInput(1)
	want, err := eng.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	tickets := make([]*Ticket, 0, n)
	for i := 0; i < n; i++ {
		tk, err := sched.Submit(g.Name, map[string]*tensor.Tensor{g.Inputs[0]: in})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		outs, err := tk.Wait()
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		if d, _ := tensor.MaxAbsDiff(want, outs[g.Outputs[0]]); d != 0 {
			t.Errorf("ticket %d diverges by %g", i, d)
		}
		if tk.Replica() == nil {
			t.Errorf("ticket %d resolved without a replica", i)
		}
		if tk.Latency() <= 0 {
			t.Errorf("ticket %d has no latency", i)
		}
	}
	st := dep.Stats()
	if st.Submitted != n {
		t.Errorf("submitted %d, want %d", st.Submitted, n)
	}
	if st.Completed != n {
		t.Errorf("completed %d, want %d", st.Completed, n)
	}
}

// TestAdmissionShedsWhenSaturated pins the admission-control path: with
// a single held replica and a tiny admission queue, an open-loop burst
// larger than the replica queue must shed some requests with
// ErrOverloaded while every admitted request still resolves.
func TestAdmissionShedsWhenSaturated(t *testing.T) {
	c := microserver.NewURECS()
	m, err := microserver.FindModule("SMARC ARM")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(0, m); err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(c, Config{QueueDepth: 1})
	defer sched.Close()
	g := gestureModel()
	dep, err := sched.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	release := gateReplicas(t, dep, g)
	defer release()
	ins := map[string]*tensor.Tensor{g.Inputs[0]: gestureInput(1)}

	const burst = 50
	var tickets []*Ticket
	shed := 0
	for i := 0; i < burst; i++ {
		tk, err := sched.Submit(g.Name, ins)
		switch {
		case err == nil:
			tickets = append(tickets, tk)
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if shed == 0 {
		t.Error("saturated fleet shed no load; want ErrOverloaded for part of the burst")
	}
	release()
	for i, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Errorf("admitted ticket %d failed: %v", i, err)
		}
	}
	st, err := sched.Deployment(g.Name)
	if err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if got := stats.Rejected; got != int64(shed) {
		t.Errorf("stats recorded %d rejected, want %d", got, shed)
	}
	if stats.Completed != int64(len(tickets)) {
		t.Errorf("stats recorded %d completed, want %d", stats.Completed, len(tickets))
	}
}

// TestCloseRacingSubmit hammers Submit while Close lands mid-storm:
// every admitted ticket must resolve (result or ErrClosed) and later
// submissions must fail fast.
func TestCloseRacingSubmit(t *testing.T) {
	sched := NewScheduler(urecsFleet(t), Config{QueueDepth: 256})
	g := gestureModel()
	dep, err := sched.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	ins := map[string]*tensor.Tensor{g.Inputs[0]: gestureInput(1)}
	const clients = 24
	var wg sync.WaitGroup
	unresolved := make(chan int, clients)
	for cidx := 0; cidx < clients; cidx++ {
		wg.Add(1)
		go func(cidx int) {
			defer wg.Done()
			tk, err := sched.Submit(g.Name, ins)
			if err != nil {
				return // refused at admission: fine
			}
			if outs, err := tk.Wait(); err == nil && outs == nil {
				unresolved <- cidx
			}
		}(cidx)
	}
	sched.Close()
	wg.Wait()
	close(unresolved)
	for cidx := range unresolved {
		t.Errorf("client %d: ticket resolved with neither result nor error", cidx)
	}
	if _, err := sched.Submit(g.Name, ins); err == nil {
		t.Error("Submit succeeded after Close")
	}
	sched.Close() // idempotent
	// Tickets failed by the shutdown drain still count as completed.
	st := dep.Stats()
	if st.Submitted != st.Completed+st.Rejected {
		t.Errorf("stats invariant broken after Close: submitted %d != completed %d + rejected %d",
			st.Submitted, st.Completed, st.Rejected)
	}
}

// TestRoutingPrefersFastestAtLowLoad runs strictly sequential requests
// (queue depth always zero at routing time), where the cost model
// reduces to the pure service estimate: every request must land on the
// replica with the lowest estimate. The fleet is the two accelerator
// slots, whose estimates are modeled and fixed; a host CPU replica's
// estimate is measured and may legitimately overtake theirs mid-run.
func TestRoutingPrefersFastestAtLowLoad(t *testing.T) {
	sched := NewScheduler(urecsFleet(t), Config{})
	defer sched.Close()
	g := gestureModel()
	dep, err := sched.DeployOn(g, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var fastest *Replica
	for _, r := range dep.Replicas() {
		if fastest == nil || r.ServiceEstimate() < fastest.ServiceEstimate() {
			fastest = r
		}
	}
	before := fastest.Stats().Served
	const serial = 12
	for i := 0; i < serial; i++ {
		if _, err := sched.InferSingle("", gestureInput(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := fastest.Stats().Served - before; got != serial {
		t.Errorf("fastest replica (%s) served %d of %d sequential requests, want all", fastest.Backend(), got, serial)
	}
}

// TestPickPowerTieBreak pins the power-aware tie-break: equal costs
// resolve toward the lower worst-case module power.
func TestPickPowerTieBreak(t *testing.T) {
	hungry := &Replica{id: 0, module: "hungry", modeled: time.Millisecond, maxW: 40}
	frugal := &Replica{id: 1, module: "frugal", modeled: time.Millisecond, maxW: 5}
	d := &Deployment{replicas: []*Replica{hungry, frugal}}
	if got := d.pick(); got != frugal {
		t.Errorf("pick chose %s, want frugal module on cost tie", got.module)
	}
	// A clear cost gap overrides the power preference.
	hungry.modeled = 100 * time.Microsecond
	if got := d.pick(); got != hungry {
		t.Errorf("pick chose %s, want the clearly faster replica", got.module)
	}
	// Queue depth scales the cost: load the fast replica and the tie
	// logic re-engages against its backlog.
	hungry.inflight.Store(50)
	if got := d.pick(); got != frugal {
		t.Errorf("pick chose %s, want idle replica over deep queue", got.module)
	}
}

func TestDeployErrors(t *testing.T) {
	sched := NewScheduler(microserver.NewURECS(), Config{})
	defer sched.Close()
	if _, err := sched.Deploy(gestureModel()); err == nil {
		t.Error("Deploy succeeded on an empty chassis")
	}
	c := urecsFleet(t)
	sched2 := NewScheduler(c, Config{})
	defer sched2.Close()
	if _, err := sched2.Deploy(gestureModel()); err != nil {
		t.Fatal(err)
	}
	if _, err := sched2.Deploy(gestureModel()); err == nil {
		t.Error("duplicate model deployment succeeded")
	}
	if _, err := sched2.Deployment("nope"); err == nil {
		t.Error("Deployment resolved an unknown model")
	}
}

// TestObserveShedExcludedFromEWMA pins the admission-accounting fix:
// shed and cancelled completions must never feed the service-time EWMA
// or the failure count — they measured queueing, not service.
func TestObserveShedExcludedFromEWMA(t *testing.T) {
	r := &Replica{}
	r.observe(time.Millisecond, nil)
	base := r.ewmaNS.Load()
	if base != int64(time.Millisecond) {
		t.Fatalf("first served observation set EWMA to %d, want %d", base, time.Millisecond)
	}
	for _, err := range []error{ErrOverloaded, context.Canceled, context.DeadlineExceeded} {
		r.observe(time.Hour, err)
	}
	if got := r.ewmaNS.Load(); got != base {
		t.Errorf("shed observations moved EWMA %d -> %d; want unchanged", base, got)
	}
	if got := r.shed.Load(); got != 3 {
		t.Errorf("shed count %d, want 3", got)
	}
	if got := r.failed.Load(); got != 0 {
		t.Errorf("shed observations counted as failed (%d)", got)
	}
	// A genuine engine fault still counts as failed, still skips the EWMA.
	r.observe(time.Hour, errors.New("engine fault"))
	if got := r.failed.Load(); got != 1 {
		t.Errorf("failed count %d, want 1", got)
	}
	if got := r.ewmaNS.Load(); got != base {
		t.Errorf("failed observation moved EWMA %d -> %d; want unchanged", base, got)
	}
	if got := r.served.Load(); got != 1 {
		t.Errorf("served count %d, want 1", got)
	}
}

// TestPerSampleWall pins the EWMA normalization: queue depth and
// coalesced batch rows divide out of the observed wall time so the
// routing estimate tracks per-sample service time.
func TestPerSampleWall(t *testing.T) {
	cases := []struct {
		wall        time.Duration
		depth, rows int64
		want        time.Duration
	}{
		{8 * time.Millisecond, 1, 1, 8 * time.Millisecond},
		{8 * time.Millisecond, 4, 1, 2 * time.Millisecond},
		{8 * time.Millisecond, 1, 8, time.Millisecond},
		{8 * time.Millisecond, 2, 4, time.Millisecond},
		{8 * time.Millisecond, 0, -3, 8 * time.Millisecond}, // clamped
	}
	for _, c := range cases {
		if got := perSampleWall(c.wall, c.depth, c.rows); got != c.want {
			t.Errorf("perSampleWall(%v, %d, %d) = %v, want %v", c.wall, c.depth, c.rows, got, c.want)
		}
	}
}

func TestBatchRows(t *testing.T) {
	names := []string{"in"}
	if got := batchRows(map[string]*tensor.Tensor{"in": tensor.New(tensor.FP32, 6, 3)}, names); got != 6 {
		t.Errorf("batch-6 input read as %d rows", got)
	}
	if got := batchRows(map[string]*tensor.Tensor{"in": tensor.New(tensor.FP32, 1, 3)}, names); got != 1 {
		t.Errorf("batch-1 input read as %d rows", got)
	}
	if got := batchRows(map[string]*tensor.Tensor{}, names); got != 1 {
		t.Errorf("missing input read as %d rows, want 1", got)
	}
	if got := batchRows(nil, nil); got != 1 {
		t.Errorf("nil inputs read as %d rows, want 1", got)
	}
}

// TestSubmitCtxCancelPropagation drives the context satellite end to
// end: a dead context is refused at admission, a cancelled queued
// ticket resolves with the context error and counts in Stats.Cancelled,
// and WaitCtx unblocks a caller whose own context expires first.
func TestSubmitCtxCancelPropagation(t *testing.T) {
	c := microserver.NewURECS()
	m, err := microserver.FindModule("SMARC ARM")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(0, m); err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(c, Config{QueueDepth: 64})
	defer sched.Close()
	g := gestureModel()
	dep, err := sched.Deploy(g)
	if err != nil {
		t.Fatal(err)
	}
	release := gateReplicas(t, dep, g)
	defer release()
	ins := map[string]*tensor.Tensor{g.Inputs[0]: gestureInput(3)}

	// Dead context: refused before admission, no ticket minted.
	dead, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	if _, err := dep.SubmitCtx(dead, ins); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context submit returned %v, want context.Canceled", err)
	}

	// Pile live work onto the single held replica, then queue a ticket
	// whose caller vanishes while it waits. It must resolve with the
	// context error and never as a silent success-after-cancel.
	var live []*Ticket
	for i := 0; i < 8; i++ {
		tk, err := dep.Submit(ins)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, tk)
	}
	ctx, cancel := context.WithCancel(context.Background())
	doomed, err := dep.SubmitCtx(ctx, ins)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	release()
	if _, err := doomed.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ticket resolved with %v, want context.Canceled", err)
	}
	for i, tk := range live {
		if _, err := tk.Wait(); err != nil {
			t.Errorf("live ticket %d failed: %v", i, err)
		}
	}
	st := dep.Stats()
	if st.Cancelled != 1 {
		t.Errorf("stats recorded %d cancelled, want 1", st.Cancelled)
	}
	if st.Submitted != st.Completed+st.Rejected {
		t.Errorf("stats invariant broken: submitted %d != completed %d + rejected %d",
			st.Submitted, st.Completed, st.Rejected)
	}

	// WaitCtx: the waiting caller's own deadline unblocks the wait even
	// though the ticket itself still completes normally.
	tk, err := dep.Submit(ins)
	if err != nil {
		t.Fatal(err)
	}
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	if _, err := tk.WaitCtx(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("WaitCtx with expired context returned %v, want deadline exceeded", err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Errorf("ticket abandoned by WaitCtx failed to complete: %v", err)
	}
}
