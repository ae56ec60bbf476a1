package microserver

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"vedliot/internal/accel"
	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// serveCPU compiles g on the host CPU backend and serves it.
func serveCPU(t *testing.T, g *nn.Graph) *Server {
	t.Helper()
	exe, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ServeCompiled(g, exe, inference.CPUBackend{}.Name())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func servedModel(t *testing.T) (*Server, *nn.Graph) {
	t.Helper()
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	return serveCPU(t, g), g
}

func gestureInput(seed int) *tensor.Tensor {
	in := tensor.New(tensor.FP32, 1, 1, 16, 16)
	for i := range in.F32 {
		in.F32[i] = float32((i*3+seed*7)%17)/17 - 0.5
	}
	return in
}

func TestServeMatchesDirectEngine(t *testing.T) {
	s, g := servedModel(t)
	defer s.Close()
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in := gestureInput(1)
	want, err := eng.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Errorf("served result diverges by %g", d)
	}
}

func TestServeBatchesConcurrentClients(t *testing.T) {
	s, g := servedModel(t)
	defer s.Close()
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			in := gestureInput(c)
			want, err := eng.RunSingle(in)
			if err != nil {
				errs <- err
				return
			}
			got, err := s.Infer(in)
			if err != nil {
				errs <- err
				return
			}
			if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
				errs <- &shapeErr{d}
				return
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Coalescing is the front door's job: the node runs every
	// submission as its own dispatch.
	st := s.Stats()
	if st.Requests != clients {
		t.Errorf("stats recorded %d requests, want %d", st.Requests, clients)
	}
	if st.Batches != st.Requests {
		t.Errorf("%d dispatches for %d requests, want one each", st.Batches, st.Requests)
	}
}

type shapeErr struct{ d float64 }

func (e *shapeErr) Error() string { return "served result diverges" }

func TestServeBadRequestFailsAlone(t *testing.T) {
	s, _ := servedModel(t)
	defer s.Close()
	var wg sync.WaitGroup
	goodErr := make(chan error, 1)
	badErr := make(chan error, 1)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := s.Infer(gestureInput(1))
		goodErr <- err
	}()
	go func() {
		defer wg.Done()
		_, err := s.Infer(tensor.New(tensor.FP32, 1, 3, 16, 16)) // wrong channels
		badErr <- err
	}()
	wg.Wait()
	if err := <-goodErr; err != nil {
		t.Errorf("well-formed request failed: %v", err)
	}
	if err := <-badErr; err == nil {
		t.Error("malformed request succeeded")
	}
}

func TestServeClose(t *testing.T) {
	s, _ := servedModel(t)
	s.Close()
	s.Close() // idempotent
	if _, err := s.Infer(gestureInput(1)); err == nil {
		t.Error("Infer succeeded after Close")
	}
}

// multiHeadGraph builds a two-output graph (conv features + relu head),
// the shape Serve historically rejected.
func multiHeadGraph() *nn.Graph {
	b := nn.NewBuilder("t", nn.BuildOptions{Weights: true, Seed: 5})
	x := b.Input("input", 1, 8, 8)
	c := b.Conv(x, 1, 2, 3, 1, 1)
	r := b.Act(c, nn.OpReLU)
	return b.Graph(c, r)
}

func TestServeMultiHeadGraph(t *testing.T) {
	g := multiHeadGraph()
	s := serveCPU(t, g)
	defer s.Close()
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(tensor.FP32, 1, 1, 8, 8)
	for i := range in.F32 {
		in.F32[i] = float32(i%7)/7 - 0.5
	}
	ins := map[string]*tensor.Tensor{g.Inputs[0]: in}
	want, err := eng.Run(ins)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent clients so the full maps flow through the shared queue.
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.InferMap(ins)
			if err != nil {
				errs <- err
				return
			}
			if len(got) != len(g.Outputs) {
				errs <- &shapeErr{float64(len(got))}
				return
			}
			for _, name := range g.Outputs {
				if d, _ := tensor.MaxAbsDiff(want[name], got[name]); d != 0 {
					errs <- &shapeErr{d}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The single-tensor shortcut stays restricted to the 1-in/1-out shape.
	if _, err := s.Infer(in); err == nil {
		t.Error("Infer accepted a two-output graph; want InferMap-only")
	}
}

func TestServerIsBackendGeneric(t *testing.T) {
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	dev, err := accel.FindDevice("Xavier NX")
	if err != nil {
		t.Fatal(err)
	}
	b := accel.NewBackend(dev)
	exe, err := b.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ServeCompiled(g, exe, b.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, want := s.Backend(), "accel:Xavier NX"; got != want {
		t.Errorf("Backend() = %q, want %q", got, want)
	}
	if s.Engine() == nil {
		t.Error("accel-backed server exposes no host engine")
	}
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	in := gestureInput(3)
	want, err := eng.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Errorf("accel-served result diverges from host engine by %g", d)
	}
}

// gatedExe wraps an executable so tests can hold a dispatch in flight:
// every Run blocks until the gate channel yields.
type gatedExe struct {
	inner inference.Executable
	gate  chan struct{}
}

func (e gatedExe) Run(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	<-e.gate
	return e.inner.Run(in)
}

// gatedServer serves g on the host CPU engine behind a gatedExe.
func gatedServer(t *testing.T, g *nn.Graph, gate chan struct{}) *Server {
	t.Helper()
	exe, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ServeCompiled(g, gatedExe{inner: exe, gate: gate}, "gated:cpu-engine")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServeDrainFailsQueued pins the shutdown drain path: requests
// still queued when Close lands are failed, not executed.
func TestServeDrainFailsQueued(t *testing.T) {
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	gate := make(chan struct{})
	s := gatedServer(t, g, gate)
	infer := func(res chan error) {
		_, err := s.Infer(gestureInput(1))
		res <- err
	}
	// First request occupies the dispatcher (blocked on the gate)...
	resA := make(chan error, 1)
	go infer(resA)
	// ...so the next two sit in the queue.
	resB, resC := make(chan error, 1), make(chan error, 1)
	waitQueued := func() {
		for i := 0; len(s.reqs) < 2 && i < 1000; i++ {
			time.Sleep(time.Millisecond)
		}
	}
	go infer(resB)
	go infer(resC)
	waitQueued()

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	// Wait until Close has marked the server closed (it then blocks in
	// wg.Wait until the gated dispatch finishes).
	for {
		s.lifeMu.RLock()
		c := s.closed
		s.lifeMu.RUnlock()
		if c {
			break
		}
		time.Sleep(time.Millisecond)
	}
	gate <- struct{}{} // release the in-flight dispatch
	<-closed

	// Exactly one request was in flight (and must have been served);
	// the two still queued must have been failed by drain. Which of the
	// three goroutines won the race to the dispatcher is arbitrary.
	served, drained := 0, 0
	for _, res := range []chan error{resA, resB, resC} {
		if err := <-res; err == nil {
			served++
		} else {
			drained++
		}
	}
	if served != 1 || drained != 2 {
		t.Errorf("served %d / drained %d requests, want 1 served (in-flight) and 2 drain failures", served, drained)
	}
	if _, err := s.Infer(gestureInput(1)); err == nil {
		t.Error("Infer succeeded after Close")
	}
}

// TestServeInferRacingClose hammers Infer from many goroutines while
// Close lands mid-storm: every call must resolve (result or closed
// error) and the server must shut down cleanly.
func TestServeInferRacingClose(t *testing.T) {
	s, _ := servedModel(t)
	const clients = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out, err := s.Infer(gestureInput(c))
			if err == nil && out == nil {
				errs <- &shapeErr{0}
				return
			}
			errs <- err
		}(c)
	}
	s.Close()
	wg.Wait()
	close(errs)
	served, refused := 0, 0
	for err := range errs {
		if err == nil {
			served++
		} else {
			refused++
		}
	}
	if served+refused != clients {
		t.Errorf("%d of %d racing calls unresolved", clients-served-refused, clients)
	}
}

func TestServeCompiledSharesOnePlan(t *testing.T) {
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	exe, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	// Two servers over one shared compiled plan — the plan-cache
	// deployment shape.
	a, err := ServeCompiled(g, exe, "cpu-engine")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ServeCompiled(g, exe, "cpu-engine")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.Executable() != b.Executable() {
		t.Fatal("servers do not share the executable")
	}
	if a.Backend() != "cpu-engine" {
		t.Fatalf("backend name %q", a.Backend())
	}
	in := gestureInput(3)
	want, err := exe.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Server{a, b} {
		got, err := s.Infer(in)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
			t.Fatalf("served output differs from shared plan by %g", d)
		}
	}
	// Closing one server must not break the other (the plan is shared,
	// never owned).
	a.Close()
	if _, err := b.Infer(in); err != nil {
		t.Fatalf("second server failed after first closed: %v", err)
	}
}

func TestServeCompiledValidates(t *testing.T) {
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	if _, err := ServeCompiled(g, nil, "cpu-engine"); err == nil {
		t.Fatal("nil executable accepted")
	}
}

// TestSubmitMapCtxCancelledBeforeDispatch pins the context path through
// the queue: a request whose context dies while it is still queued must
// resolve with the context error without ever reaching the engine, and
// must not count as a served request. The gate holds the dispatcher on
// the request ahead, so the cancelled one is provably still queued.
func TestSubmitMapCtxCancelledBeforeDispatch(t *testing.T) {
	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	s := gatedServer(t, g, gate)
	defer s.Close()
	defer release()
	ins := map[string]*tensor.Tensor{g.Inputs[0]: gestureInput(1)}

	ahead, err := s.SubmitMapCtx(context.Background(), ins)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	doomed, err := s.SubmitMapCtx(ctx, ins)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	live, err := s.SubmitMapCtx(context.Background(), ins)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if _, err := ahead.Wait(); err != nil {
		t.Errorf("request ahead failed: %v", err)
	}
	if _, err := doomed.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled request resolved with %v, want context.Canceled", err)
	}
	if _, err := live.Wait(); err != nil {
		t.Errorf("live request failed: %v", err)
	}
	st := s.Stats()
	if st.Cancelled != 1 {
		t.Errorf("stats recorded %d cancelled, want 1", st.Cancelled)
	}
	if st.Requests != 2 {
		t.Errorf("stats recorded %d dispatched requests, want 2 (cancelled must not count)", st.Requests)
	}

	// An already-dead context is refused at submission.
	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := s.SubmitMapCtx(dead, ins); !errors.Is(err, context.Canceled) {
		t.Errorf("submit on dead context returned %v, want context.Canceled", err)
	}
}
