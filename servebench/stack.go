package main

import (
	"context"
	"fmt"
	"time"

	"vedliot/internal/artifact"
	"vedliot/internal/cluster"
	"vedliot/internal/microserver"
	"vedliot/internal/nn"
	"vedliot/internal/serve"
	"vedliot/internal/zoo"
)

// stack is one serving stack as `vedliot-serve -listen` builds it: a
// uRECS fleet behind a framed-TCP front door in open mode, with the
// generator's connections dialled.
type stack struct {
	model   string
	sched   *cluster.Scheduler
	dep     *cluster.Deployment
	reg     *cluster.Registry // nil unless deployed from an artifact
	srv     *serve.Server
	clients []*serve.Client
}

// setupTimes splits one set-up into its steps, in seconds. total runs
// from the start of set-up to the first correct reply.
type setupTimes struct {
	build, calibrate, deploy, listen, total float64
}

// setUp builds a stack, timing each step, and checks its first reply.
// artifactPath is the .vedz packed beforehand for artifact workloads.
func setUp(w *workload, artifactPath string, pool *refPool, first *request) (*stack, setupTimes, error) {
	var t setupTimes
	start := time.Now()

	step := time.Now()
	var g *nn.Graph
	var art *artifact.Model
	if w.artifact {
		m, err := artifact.Load(artifactPath)
		if err != nil {
			return nil, t, err
		}
		art, g = m, m.Graph
	} else {
		entry, err := zoo.Find(w.model)
		if err != nil {
			return nil, t, err
		}
		g = entry.Build()
	}
	t.build = since(step)

	step = time.Now()
	var schema *nn.QuantSchema
	if art != nil {
		schema = art.Schema
	}
	if w.int8 && schema == nil {
		s, err := calibrate(g)
		if err != nil {
			return nil, t, fmt.Errorf("calibrate: %w", err)
		}
		schema = s
	}
	t.calibrate = since(step)

	step = time.Now()
	chassis := microserver.NewURECS()
	for slot, name := range w.modules {
		m, err := microserver.FindModule(name)
		if err != nil {
			return nil, t, err
		}
		if err := chassis.Insert(slot, m); err != nil {
			return nil, t, err
		}
	}
	cfg := cluster.Config{QueueDepth: 256, EmulateLatency: true, Schema: schema}
	if art != nil {
		cfg.Registry = cluster.NewRegistry()
		if err := cfg.Registry.Add(art); err != nil {
			return nil, t, err
		}
	}
	s := &stack{model: g.Name, reg: cfg.Registry, sched: cluster.NewScheduler(chassis, cfg)}
	var err error
	if art != nil {
		s.dep, err = s.sched.DeployArtifact(g.Name)
	} else {
		s.dep, err = s.sched.Deploy(g)
	}
	if err != nil {
		s.close()
		return nil, t, fmt.Errorf("deploy: %w", err)
	}
	t.deploy = since(step)

	step = time.Now()
	policy := serve.BatchPolicy{MaxBatch: 32, MaxDelay: time.Millisecond}
	if s.srv, err = serve.Listen("127.0.0.1:0", s.sched, serve.Config{Batch: policy}); err != nil {
		s.close()
		return nil, t, err
	}
	for i := 0; i < w.conns; i++ {
		c, err := serve.Dial(s.srv.Addr(), "")
		if err != nil {
			s.close()
			return nil, t, err
		}
		s.clients = append(s.clients, c)
	}
	t.listen = since(step)

	outs, err := s.clients[0].InferCtx(context.Background(), s.model, first.ins)
	if err != nil {
		s.close()
		return nil, t, fmt.Errorf("first reply: %w", err)
	}
	if !pool.check(first, outs) {
		s.close()
		return nil, t, fmt.Errorf("first reply differs from the reference")
	}
	t.total = since(start)
	return s, t, nil
}

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// close tears the stack down: connections, front door, then fleet.
func (s *stack) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.sched.Close()
}
