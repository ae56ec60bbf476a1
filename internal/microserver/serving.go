package microserver

import (
	"context"
	"fmt"
	"sync"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// queueDepth is a server's request channel capacity: room for a short
// burst of front-door batches before the node pushes back. A full queue
// blocks the submitter, which is the node-level backpressure the fleet
// router leans on.
const queueDepth = 32

// ServeStats is a server's cumulative telemetry, the serving-side
// counterpart of the chassis Monitoring snapshots.
type ServeStats struct {
	// Requests counts submissions run on the executable; Batches counts
	// the dispatches that ran them, one per submission.
	Requests int64
	Batches  int64
	// Cancelled counts requests whose context was cancelled while they
	// were still queued: they are completed with the context error
	// without ever reaching the engine, so a disconnected client stops
	// consuming replica time. Cancelled requests are not counted in
	// Requests.
	Cancelled int64
}

// Server is one microserver node's inference service: a single compiled
// executable shared by all clients, fed through a bounded queue that
// one dispatcher goroutine drains in arrival order. Every submission
// runs as its own Executable.Run: requests are coalesced once, at the
// front door (internal/serve), and reach the node already batched, so
// the node adds no wait of its own.
//
// The server is backend-generic: it fronts whatever executable an
// inference.Backend compiled — the host CPU engine, a simulated
// accelerator (accel.Backend) or SoC firmware mounted in a chassis
// slot. The fleet layer (internal/cluster) builds one Server per
// device and routes traffic across them.
type Server struct {
	exe         inference.Executable
	backendName string
	graphName   string
	inputNames  []string
	outputNames []string

	reqs chan *request
	quit chan struct{}
	wg   sync.WaitGroup

	// lifeMu serializes shutdown against in-flight submissions: InferMap
	// holds a read lock across its enqueue, so Close (write lock) cannot
	// mark the server closed while a request is between the closed-check
	// and the queue. Dispatcher goroutines never take lifeMu.
	lifeMu sync.RWMutex
	closed bool

	statsMu sync.Mutex
	stats   ServeStats
}

type request struct {
	ctx  context.Context
	ins  map[string]*tensor.Tensor
	outs map[string]*tensor.Tensor
	err  error
	done chan struct{}
}

// ServeCompiled starts the dispatcher over an already-compiled
// executable; backendName labels the backend that compiled it. Graphs
// with any number of inputs and outputs are served: full input/output
// maps flow through the queue (InferMap); the single-tensor Infer
// shortcut additionally requires the 1-in/1-out serving shape.
//
// When several replicas of one artifact share a backend, the fleet
// layer compiles once through the plan cache (inference.PlanCache) and
// binds every server to the shared plan, so a replica cold-start skips
// lowering entirely. The executable must be safe for concurrent Run
// (host engines, accel programs and SoC firmware are); Close releases
// only the server, never the plan.
func ServeCompiled(g *nn.Graph, exe inference.Executable, backendName string) (*Server, error) {
	if exe == nil {
		return nil, fmt.Errorf("microserver: nil executable")
	}
	if len(g.Inputs) == 0 || len(g.Outputs) == 0 {
		return nil, fmt.Errorf("microserver: graph %q has %d inputs/%d outputs, need at least 1/1",
			g.Name, len(g.Inputs), len(g.Outputs))
	}
	s := &Server{
		exe:         exe,
		backendName: backendName,
		graphName:   g.Name,
		inputNames:  append([]string(nil), g.Inputs...),
		outputNames: append([]string(nil), g.Outputs...),
		reqs:        make(chan *request, queueDepth),
		quit:        make(chan struct{}),
	}
	s.wg.Add(1)
	go s.dispatch()
	return s, nil
}

// Executable exposes the shared compiled model (e.g. for direct batch
// submission, latency prediction or reporting).
func (s *Server) Executable() inference.Executable { return s.exe }

// Backend returns the name of the backend the model was compiled for.
func (s *Server) Backend() string { return s.backendName }

// Engine returns the host CPU engine backing this server, or nil when
// the server fronts a non-CPU executable that does not expose one.
func (s *Server) Engine() *inference.Engine {
	switch e := s.exe.(type) {
	case *inference.Engine:
		return e
	case interface{ HostEngine() *inference.Engine }:
		return e.HostEngine()
	}
	return nil
}

// Infer submits one input and blocks until its result is ready — the
// single-tensor shortcut for 1-input/1-output graphs. Safe for
// concurrent use. The input carries a leading batch dimension ([1, ...]
// for one sample; larger batches run as one dispatch).
func (s *Server) Infer(in *tensor.Tensor) (*tensor.Tensor, error) {
	if len(s.inputNames) != 1 || len(s.outputNames) != 1 {
		return nil, fmt.Errorf("microserver: Infer wants 1 input/1 output, graph %q has %d/%d (use InferMap)",
			s.graphName, len(s.inputNames), len(s.outputNames))
	}
	outs, err := s.InferMap(map[string]*tensor.Tensor{s.inputNames[0]: in})
	if err != nil {
		return nil, err
	}
	return outs[s.outputNames[0]], nil
}

// InferMap submits a full input map (keyed by input-node name) and
// blocks until the full output map is ready — the general serving path
// for multi-head graphs. Safe for concurrent use.
func (s *Server) InferMap(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	p, err := s.SubmitMap(inputs)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// SubmitMap hands a request to the queue without waiting for
// its result; the returned Pending resolves through Wait. The enqueue
// blocks while the queue is full, which is the node-level backpressure
// the fleet router leans on.
func (s *Server) SubmitMap(inputs map[string]*tensor.Tensor) (*Pending, error) {
	return s.SubmitMapCtx(context.Background(), inputs)
}

// SubmitMapCtx is SubmitMap bound to a caller context: the blocking
// enqueue aborts when the context ends, and a request whose context is
// cancelled while it is still queued is completed with the context
// error instead of being dispatched — a disconnected client stops
// consuming replica time. A request already handed to the engine runs
// to completion (engine dispatches are not preemptible).
func (s *Server) SubmitMapCtx(ctx context.Context, inputs map[string]*tensor.Tensor) (*Pending, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.lifeMu.RLock()
	if s.closed {
		s.lifeMu.RUnlock()
		return nil, fmt.Errorf("microserver: server closed")
	}
	r := &request{ctx: ctx, ins: inputs, done: make(chan struct{})}
	select {
	case s.reqs <- r:
		s.lifeMu.RUnlock()
		return &Pending{r: r}, nil
	case <-ctx.Done():
		s.lifeMu.RUnlock()
		return nil, ctx.Err()
	}
}

// Pending is a request accepted into the queue.
type Pending struct{ r *request }

// Wait blocks until the request's dispatch resolves.
func (p *Pending) Wait() (map[string]*tensor.Tensor, error) {
	<-p.r.done
	return p.r.outs, p.r.err
}

// Close drains the dispatcher and releases it. Requests already queued
// are completed or failed; later Infer calls fail immediately.
func (s *Server) Close() {
	s.lifeMu.Lock()
	if s.closed {
		s.lifeMu.Unlock()
		return
	}
	s.closed = true
	close(s.quit)
	s.lifeMu.Unlock()
	s.wg.Wait()
}

// Stats returns cumulative serving telemetry.
func (s *Server) Stats() ServeStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		// Once shutdown has begun, stop accepting new work even if the
		// queue is non-empty: queued requests are failed by drain, which
		// keeps Close prompt and deterministic.
		select {
		case <-s.quit:
			s.drain()
			return
		default:
		}
		select {
		case r := <-s.reqs:
			s.run(r)
		case <-s.quit:
			s.drain()
			return
		}
	}
}

// drain fails any requests that were queued after shutdown began.
func (s *Server) drain() {
	for {
		select {
		case r := <-s.reqs:
			r.err = fmt.Errorf("microserver: server closed")
			close(r.done)
		default:
			return
		}
	}
}

// run executes one request, unless its caller vanished while it was
// queued: then it completes with the context error and never reaches
// the engine. Stats are updated before the request resolves, so a
// caller returning from Wait sees its own request counted.
func (s *Server) run(r *request) {
	err := r.ctx.Err()
	if err == nil {
		r.outs, r.err = s.exe.Run(r.ins)
	} else {
		r.err = err
	}
	s.statsMu.Lock()
	if err == nil {
		s.stats.Requests++
		s.stats.Batches++
	} else {
		s.stats.Cancelled++
	}
	s.statsMu.Unlock()
	close(r.done)
}
