package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"vedliot/internal/artifact"
	"vedliot/internal/cluster"
	"vedliot/internal/inference"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// armFleet builds a chassis with n host-CPU modules.
func armFleet(t *testing.T, n int) *microserver.Chassis {
	t.Helper()
	c := microserver.NewURECS()
	for slot := 0; slot < n; slot++ {
		m, err := microserver.FindModule("SMARC ARM")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(slot, m); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func testModel() *nn.Graph {
	return nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 21})
}

func testInput(seed int) *tensor.Tensor {
	in := tensor.New(tensor.FP32, 1, 1, 16, 16)
	for i := range in.F32 {
		in.F32[i] = float32((i*5+seed*11)%23)/23 - 0.5
	}
	return in
}

// startServer deploys the test model on n replicas and listens on a
// loopback socket.
func startServer(t *testing.T, n int, clCfg cluster.Config, cfg Config) (*Server, *cluster.Scheduler, *nn.Graph) {
	t.Helper()
	sched := cluster.NewScheduler(armFleet(t, n), clCfg)
	t.Cleanup(sched.Close)
	g := testModel()
	if _, err := sched.Deploy(g); err != nil {
		t.Fatal(err)
	}
	return listen(t, sched, cfg), sched, g
}

// listen serves sched on a loopback socket until the test ends.
func listen(t *testing.T, sched *cluster.Scheduler, cfg Config) *Server {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// heldExe is an executable (and the backend that compiles to it) whose
// runs can be held: hold parks every later Run until release, so a
// burst backs up into admission without relying on timing.
type heldExe struct {
	inner inference.Executable
	mu    sync.RWMutex
}

func (h *heldExe) Name() string { return inference.CPUBackend{}.Name() }

func (h *heldExe) Compile(*nn.Graph, ...inference.Option) (inference.Executable, error) {
	return h, nil
}

func (h *heldExe) Run(in map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.inner.Run(in)
}

// hold parks every later Run; the returned release (idempotent) lets
// them go.
func (h *heldExe) hold() (release func()) {
	h.mu.Lock()
	return sync.OnceFunc(h.mu.Unlock)
}

// deployHeld deploys the test model on one replica that runs a heldExe.
// The held plan reaches the replica through the registry's plan cache,
// seeded under the key the artifact deploy path looks up for the host
// CPU backend; the test fails if the replica bound anything else.
func deployHeld(t *testing.T, clCfg cluster.Config) (*cluster.Scheduler, *nn.Graph, *heldExe) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "held.vedz")
	if err := artifact.Save(path, &artifact.Model{Graph: testModel()}); err != nil {
		t.Fatal(err)
	}
	clCfg.Registry = cluster.NewRegistry()
	m, err := clCfg.Registry.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := inference.Compile(m.Graph)
	if err != nil {
		t.Fatal(err)
	}
	held := &heldExe{inner: exe}
	key := m.Digest + "|" + held.Name()
	if _, _, err := clCfg.Registry.Plans().Compile(key, held, m.Graph); err != nil {
		t.Fatal(err)
	}
	sched := cluster.NewScheduler(armFleet(t, 1), clCfg)
	t.Cleanup(sched.Close)
	dep, err := sched.DeployArtifact(m.Graph.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got := dep.Replicas()[0].Server().Executable(); got != inference.Executable(held) {
		t.Fatalf("replica runs %T, not the held plan", got)
	}
	return sched, m.Graph, held
}

func TestTensorMapRoundTrip(t *testing.T) {
	ins := map[string]*tensor.Tensor{
		"a": testInput(1),
		"z": tensor.MustFromSlice([]float32{1.5, -2.25, 3e-9}, 3),
	}
	b := beginFrame(TypeRequest, 42, 64)
	b = appendString(b, "model-x")
	b, err := appendTensorMap(b, ins)
	if err != nil {
		t.Fatal(err)
	}
	b = finishFrame(b)

	fr := newFrameReader(bytes.NewReader(b), 0)
	f, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	if f.typ != TypeRequest || f.id != 42 {
		t.Fatalf("frame header (%d, %d), want (%d, 42)", f.typ, f.id, TypeRequest)
	}
	model, err := f.body.str()
	if err != nil || model != "model-x" {
		t.Fatalf("model %q (%v), want model-x", model, err)
	}
	got, err := f.body.tensorMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ins) {
		t.Fatalf("decoded %d tensors, want %d", len(got), len(ins))
	}
	for name, want := range ins {
		d, _ := tensor.MaxAbsDiff(want, got[name])
		if d != 0 {
			t.Errorf("tensor %q diverges by %g after round trip", name, d)
		}
		if !want.Shape.Equal(got[name].Shape) {
			t.Errorf("tensor %q shape %v, want %v", name, got[name].Shape, want.Shape)
		}
	}
}

// overflowTensorMap is a 15-byte encoded tensor map whose one tensor
// declares dims [1<<31, 1<<31]: the element count overflows, and an
// unchecked decoder computes a zero-byte payload and then allocates
// the full product.
func overflowTensorMap() []byte {
	b := binary.LittleEndian.AppendUint16(nil, 1)
	b = appendString(b, "x")
	b = append(b, dtFP32, 2)
	b = binary.LittleEndian.AppendUint32(b, 1<<31)
	return binary.LittleEndian.AppendUint32(b, 1<<31)
}

func TestTensorMapRejectsOverflowingDims(t *testing.T) {
	b := overflowTensorMap()
	if len(b) != 15 {
		t.Fatalf("encoded %d bytes, want 15", len(b))
	}
	d := decoder{b: b}
	if m, err := d.tensorMap(); err == nil {
		t.Fatalf("decoded %d tensors from an overflowing shape", len(m))
	}
}

// TestServerSurvivesOverflowingFrame sends the overflowing tensor map
// to a live server: the request is refused as bad, and the next
// well-formed request on the same connection is still served.
func TestServerSurvivesOverflowingFrame(t *testing.T) {
	srv, _, g := startServer(t, 1, cluster.Config{}, Config{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := newFrameReader(conn, 0)
	reply := func(id uint64, payload []byte) (byte, decoder) {
		t.Helper()
		b := beginFrame(TypeRequest, id, 0)
		b = appendString(b, g.Name)
		b = finishFrame(append(b, payload...))
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
		f, err := fr.next()
		if err != nil {
			t.Fatalf("request %d: no reply: %v", id, err)
		}
		if f.typ != TypeReply || f.id != id {
			t.Fatalf("request %d: frame (%d, %d), want a reply", id, f.typ, f.id)
		}
		status, err := f.body.u8()
		if err != nil {
			t.Fatal(err)
		}
		return status, f.body
	}
	if status, _ := reply(1, overflowTensorMap()); status != StatusBadRequest {
		t.Errorf("overflowing tensor map got status %d, want %d", status, StatusBadRequest)
	}
	good, err := appendTensorMap(nil, map[string]*tensor.Tensor{g.Inputs[0]: testInput(1)})
	if err != nil {
		t.Fatal(err)
	}
	status, body := reply(2, good)
	if status != StatusOK {
		t.Fatalf("well-formed request after the bad one got status %d", status)
	}
	if outs, err := body.tensorMap(); err != nil || outs[g.Outputs[0]] == nil {
		t.Errorf("well-formed request after the bad one: outputs %v (%v)", outs, err)
	}
	if st := srv.Stats(); st.BadRequest != 1 {
		t.Errorf("server counted %d bad requests, want 1", st.BadRequest)
	}
}

func TestFrameReaderRejectsOversizedFrame(t *testing.T) {
	b := beginFrame(TypeRequest, 1, 256)
	b = append(b, make([]byte, 128)...)
	b = finishFrame(b)
	fr := newFrameReader(bytes.NewReader(b), 64)
	if _, err := fr.next(); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestEndToEndParity(t *testing.T) {
	srv, _, g := startServer(t, 2, cluster.Config{QueueDepth: 64}, Config{})
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Tenant() != DefaultTenant {
		t.Errorf("open-mode tenant %q, want %q", cl.Tenant(), DefaultTenant)
	}
	for seed := 0; seed < 5; seed++ {
		in := testInput(seed)
		want, err := eng.RunSingle(in)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := cl.InferCtx(context.Background(), g.Name, map[string]*tensor.Tensor{g.Inputs[0]: in})
		if err != nil {
			t.Fatal(err)
		}
		got := outs[g.Outputs[0]]
		if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
			t.Errorf("seed %d: socket result diverges from engine by %g", seed, d)
		}
	}
	if st := srv.Stats(); st.Requests < 5 || st.Accepted < 1 {
		t.Errorf("server stats missed traffic: %+v", st)
	}
}

func TestAPIKeyAuth(t *testing.T) {
	srv, _, g := startServer(t, 1, cluster.Config{QueueDepth: 64}, Config{
		Keys: map[string]string{"sk-alpha": "alpha", "sk-beta": "beta"},
	})
	if _, err := Dial(srv.Addr(), "sk-wrong"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("wrong key dialed in: %v", err)
	}
	cl, err := Dial(srv.Addr(), "sk-alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Tenant() != "alpha" {
		t.Errorf("tenant %q, want alpha", cl.Tenant())
	}
	in := testInput(0)
	if _, err := cl.InferCtx(context.Background(), g.Name, map[string]*tensor.Tensor{g.Inputs[0]: in}); err != nil {
		t.Fatalf("authed request failed: %v", err)
	}
	if st := srv.Stats(); st.Unauthorized < 1 {
		t.Errorf("unauthorized dial not counted: %+v", st)
	}
}

// TestOverloadRetryAfter drives an open-loop burst at a held
// single-replica fleet with a depth-1 admission queue: part of the
// burst must come back as RetryAfterError with the configured hint.
func TestOverloadRetryAfter(t *testing.T) {
	sched, g, held := deployHeld(t, cluster.Config{QueueDepth: 1})
	srv := listen(t, sched, Config{Batch: BatchPolicy{MaxBatch: 1}, RetryAfter: 7 * time.Millisecond})
	pool, err := DialPool(srv.Addr(), "", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ins := map[string]*tensor.Tensor{g.Inputs[0]: testInput(0)}
	release := held.hold()
	defer release()
	const burst = 64
	var wg sync.WaitGroup
	errs := make([]error, burst)
	returned := make(chan struct{}, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = pool.InferCtx(context.Background(), g.Name, ins)
			returned <- struct{}{}
		}(i)
	}
	// The held replica completes nothing, and its queue, the router's
	// hand-off and the admission slot hold fewer requests than the
	// burst: the first reply back is a shed. Then let the replica run.
	<-returned
	release()
	wg.Wait()
	shed, ok := 0, 0
	for i, err := range errs {
		var ra *RetryAfterError
		switch {
		case err == nil:
			ok++
		case errors.As(err, &ra):
			shed++
			if ra.After != 7*time.Millisecond {
				t.Errorf("request %d: retry hint %v, want 7ms", i, ra.After)
			}
		default:
			t.Errorf("request %d: unexpected error %v", i, err)
		}
	}
	if shed == 0 {
		t.Error("saturated burst shed nothing over the socket")
	}
	if ok == 0 {
		t.Error("saturated burst completed nothing")
	}
	if st := srv.Stats(); st.Overloaded != int64(shed) {
		t.Errorf("server counted %d overloaded, clients saw %d", st.Overloaded, shed)
	}
}

// TestBurstShedCloseMidBurst pins the satellite: an open-loop burst
// against bounded queues sheds without deadlock even when the server
// and scheduler close mid-burst, and every request resolves.
func TestBurstShedCloseMidBurst(t *testing.T) {
	sched, g, held := deployHeld(t, cluster.Config{QueueDepth: 2})
	srv := listen(t, sched, Config{Batch: BatchPolicy{MaxBatch: 1}})
	pool, err := DialPool(srv.Addr(), "", 4)
	if err != nil {
		t.Fatal(err)
	}
	ins := map[string]*tensor.Tensor{g.Inputs[0]: testInput(0)}
	release := held.hold()
	defer release()
	const burst = 96
	var wg sync.WaitGroup
	resolved := make([]bool, burst)
	returned := make(chan struct{}, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err := pool.InferCtx(ctx, g.Name, ins)
			resolved[i] = !errors.Is(err, context.DeadlineExceeded)
			returned <- struct{}{}
		}(i)
	}
	// The first reply back from the held replica is a shed: the queues
	// are full and the burst is in flight. Sever everything now, with
	// the replica draining its backlog.
	<-returned
	release()
	srv.Close()
	sched.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("burst deadlocked across Close")
	}
	pool.Close()
	for i, r := range resolved {
		if !r {
			t.Errorf("request %d hit its deadline instead of resolving", i)
		}
	}
}

// TestBatcherCoalescesWithParity floods a batching server from many
// connections and checks (a) results stay bitwise-identical to the
// reference engine and (b) the server actually coalesced rows.
func TestBatcherCoalescesWithParity(t *testing.T) {
	srv, _, g := startServer(t, 1, cluster.Config{QueueDepth: 256},
		Config{Batch: BatchPolicy{MaxBatch: 16, MaxDelay: 2 * time.Millisecond}})
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 8
	want := make([]*tensor.Tensor, seeds)
	for s := 0; s < seeds; s++ {
		if want[s], err = eng.RunSingle(testInput(s)); err != nil {
			t.Fatal(err)
		}
	}
	pool, err := DialPool(srv.Addr(), "", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const calls = 160
	var wg sync.WaitGroup
	errCh := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := i % seeds
			outs, err := pool.InferCtx(context.Background(), g.Name,
				map[string]*tensor.Tensor{g.Inputs[0]: testInput(s)})
			if err != nil {
				errCh <- fmt.Errorf("call %d: %w", i, err)
				return
			}
			if d, _ := tensor.MaxAbsDiff(want[s], outs[g.Outputs[0]]); d != 0 {
				errCh <- fmt.Errorf("call %d diverges by %g through the batcher", i, d)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st := srv.Stats()
	if st.Batches == 0 || st.BatchedRows != calls {
		t.Fatalf("batch accounting off: %+v", st)
	}
	if st.MeanBatch <= 1.2 {
		t.Errorf("mean batch %.2f under concurrent flood, want > 1.2", st.MeanBatch)
	}
}

// TestBatcherFlushesIncompatibleShapes mixes batch sizes: requests with
// different leading dims stack, different trailing shapes must not.
func TestBatcherFlushesIncompatibleShapes(t *testing.T) {
	srv, _, g := startServer(t, 1, cluster.Config{QueueDepth: 64},
		Config{Batch: BatchPolicy{MaxBatch: 8, MaxDelay: 5 * time.Millisecond}})
	cl, err := Dial(srv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// A batch-3 request through the batcher: rows survive the round trip.
	in3 := tensor.New(tensor.FP32, 3, 1, 16, 16)
	for i := range in3.F32 {
		in3.F32[i] = float32(i%7) / 7
	}
	outs, err := cl.InferCtx(context.Background(), g.Name, map[string]*tensor.Tensor{g.Inputs[0]: in3})
	if err != nil {
		t.Fatal(err)
	}
	if got := outs[g.Outputs[0]].Shape[0]; got != 3 {
		t.Errorf("batch-3 request returned %d rows", got)
	}
	// A wrong trailing shape is rejected, not stacked into others.
	bad := tensor.New(tensor.FP32, 1, 1, 8, 8)
	if _, err := cl.InferCtx(context.Background(), g.Name, map[string]*tensor.Tensor{g.Inputs[0]: bad}); err == nil {
		t.Error("mis-shaped input inferred successfully")
	}
}

func TestHTTPAdapter(t *testing.T) {
	srv, _, g := startServer(t, 1, cluster.Config{QueueDepth: 64},
		Config{Keys: map[string]string{"sk-h": "web"}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	in := testInput(2)
	body, _ := json.Marshal(HTTPInferRequest{
		Model:  g.Name,
		Inputs: map[string]HTTPTensor{g.Inputs[0]: {Shape: in.Shape, Data: in.F32}},
	})

	// No key: 401.
	req, _ := newJSONRequest(ts.URL+"/v1/infer", body, "")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 401 {
		t.Errorf("keyless infer got %d, want 401", resp.StatusCode)
	}

	// Good key: 200 with outputs.
	req, _ = newJSONRequest(ts.URL+"/v1/infer", body, "sk-h")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("infer got %d, want 200", resp.StatusCode)
	}
	var out HTTPInferResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ht, ok := out.Outputs[g.Outputs[0]]
	if !ok || len(ht.Data) == 0 {
		t.Fatalf("response missing output %q: %+v", g.Outputs[0], out)
	}
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.RunSingle(in)
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.MustFromSlice(ht.Data, ht.Shape...)
	if d, _ := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Errorf("HTTP result diverges from engine by %g", d)
	}

	// Model list includes the deployment.
	mresp, err := ts.Client().Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models struct {
		Models []string `json:"models"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if len(models.Models) != 1 || models.Models[0] != g.Name {
		t.Errorf("models %v, want [%s]", models.Models, g.Name)
	}

	// Stats report the traffic.
	sresp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st ServerStats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Requests < 1 || st.Unauthorized < 1 {
		t.Errorf("stats missed HTTP traffic: %+v", st)
	}
}

// TestRunClosedLoopOverSocket drives the load generator end to end over
// a real socket and checks the accounting adds up.
// TestHTTPRejectsOverflowingShape posts a shape whose element count
// wraps to zero with no data: the adapter must answer 400 and keep
// serving instead of letting the engine allocate the full product.
func TestHTTPRejectsOverflowingShape(t *testing.T) {
	srv, _, g := startServer(t, 1, cluster.Config{}, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(ht HTTPTensor) int {
		t.Helper()
		body, _ := json.Marshal(HTTPInferRequest{Model: g.Name, Inputs: map[string]HTTPTensor{g.Inputs[0]: ht}})
		req, _ := newJSONRequest(ts.URL+"/v1/infer", body, "")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(HTTPTensor{Shape: []int{1 << 62, 1, 16, 16}}); code != http.StatusBadRequest {
		t.Errorf("overflowing shape got %d, want 400", code)
	}
	in := testInput(1)
	if code := post(HTTPTensor{Shape: in.Shape, Data: in.F32}); code != http.StatusOK {
		t.Errorf("well-formed request after the bad one got %d, want 200", code)
	}
}

func TestRunClosedLoopOverSocket(t *testing.T) {
	srv, _, g := startServer(t, 2, cluster.Config{QueueDepth: 512},
		Config{Batch: BatchPolicy{MaxBatch: 32, MaxDelay: time.Millisecond}})
	pool, err := DialPool(srv.Addr(), "", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	res, err := RunClosedLoop(pool, LoadConfig{
		Model: g.Name, Clients: 64, RequestsPerClient: 3,
		Think: 2 * time.Millisecond, SLO: time.Second,
		Inputs: func(i int) map[string]*tensor.Tensor {
			return map[string]*tensor.Tensor{g.Inputs[0]: testInput(i)}
		},
		Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 64*3 {
		t.Errorf("requests %d, want %d", res.Requests, 64*3)
	}
	if res.Completed+res.Shed+res.Failed != res.Requests {
		t.Errorf("accounting broken: %d + %d + %d != %d", res.Completed, res.Shed, res.Failed, res.Requests)
	}
	if res.Failed != 0 {
		t.Errorf("%d hard failures under gentle load", res.Failed)
	}
	if res.Completed == 0 || res.Throughput <= 0 {
		t.Errorf("no completions recorded: %+v", res)
	}
	if res.Latency.P50 <= 0 || res.Latency.P999 < res.Latency.P50 {
		t.Errorf("latency summary inconsistent: %+v", res.Latency)
	}
}

// releaseOnShed is a Transport that runs release once the first
// request comes back shed.
type releaseOnShed struct {
	Transport
	release func()
}

func (r releaseOnShed) InferCtx(ctx context.Context, model string, ins map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	outs, err := r.Transport.InferCtx(ctx, model, ins)
	var ra *RetryAfterError
	if errors.As(err, &ra) {
		r.release()
	}
	return outs, err
}

// TestReplayOpenLoopBursts replays a bursty open-loop trace against a
// bounded fleet whose replica is held until the first shed: sheds
// happen, nothing deadlocks, accounting holds.
func TestReplayOpenLoopBursts(t *testing.T) {
	sched, g, held := deployHeld(t, cluster.Config{QueueDepth: 2})
	srv := listen(t, sched, Config{Batch: BatchPolicy{MaxBatch: 1}})
	cl, err := Dial(srv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	release := held.hold()
	defer release()
	trace := cluster.OpenLoopTrace(120, 4000, 3)
	res, err := ReplayOpenLoop(releaseOnShed{Transport: cl, release: release}, trace, LoadConfig{
		Model: g.Name,
		SLO:   time.Second,
		Inputs: func(i int) map[string]*tensor.Tensor {
			return map[string]*tensor.Tensor{g.Inputs[0]: testInput(i)}
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Error("bursty replay against bounded queues shed nothing")
	}
	if res.Failed != 0 {
		t.Errorf("%d hard failures in replay", res.Failed)
	}
	if res.Completed+res.Shed != res.Requests {
		t.Errorf("accounting broken: %d + %d != %d", res.Completed, res.Shed, res.Requests)
	}
	if res.SLOViolations < res.Shed {
		t.Errorf("sheds must count as SLO violations: %d < %d", res.SLOViolations, res.Shed)
	}
}

func TestShapeSig(t *testing.T) {
	a := map[string]*tensor.Tensor{"x": tensor.New(tensor.FP32, 1, 3, 4)}
	b := map[string]*tensor.Tensor{"x": tensor.New(tensor.FP32, 5, 3, 4)}
	c := map[string]*tensor.Tensor{"x": tensor.New(tensor.FP32, 1, 3, 5)}
	sigA, rowsA, err := shapeSig(a)
	if err != nil || rowsA != 1 {
		t.Fatalf("sig(a): %v rows %d", err, rowsA)
	}
	sigB, rowsB, err := shapeSig(b)
	if err != nil || rowsB != 5 {
		t.Fatalf("sig(b): %v rows %d", err, rowsB)
	}
	if sigA != sigB {
		t.Error("same trailing shape with different batch dims must share a signature")
	}
	sigC, _, err := shapeSig(c)
	if err != nil {
		t.Fatal(err)
	}
	if sigC == sigA {
		t.Error("different trailing shapes must not share a signature")
	}
	if _, _, err := shapeSig(map[string]*tensor.Tensor{
		"x": tensor.New(tensor.FP32, 2, 3),
		"y": tensor.New(tensor.FP32, 3, 3),
	}); err == nil {
		t.Error("mismatched row counts across inputs accepted")
	}
}

// newJSONRequest builds a POST with an optional X-API-Key header.
func newJSONRequest(url string, body []byte, key string) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	return req, nil
}
