package accel

import (
	"errors"
	"fmt"
	"time"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
)

// Backend adapts a modeled Device to the inference.Backend interface:
// programs compiled for a simulated accelerator execute functionally on
// the host engine while latency, throughput and power come from the
// device's roofline model. The real CPU engine (inference.CPUBackend)
// and every simulated accelerator therefore satisfy one compile-and-run
// interface — the cross-accelerator methodology of the paper's Fig. 4
// evaluation, where the same network is deployed unchanged across
// heterogeneous targets.
//
// When the backend runs at INT8 and a calibration schema is attached,
// functional execution goes through the native quantized engine
// (inference.CompileQuantized) instead of the FP32 engine — the
// INT8-only device models (EdgeTPU class) then produce genuinely
// quantized outputs, making their roofline predictions honest about
// the arithmetic the modeled silicon performs.
type Backend struct {
	Device *Device
	// Precision is the precision the device runs the model at. The
	// zero value (FP32) is used as-is; use NewBackend to default to the
	// device's fastest supported precision.
	Precision tensor.DType
	// Schema is the activation calibration artifact enabling native
	// INT8 execution. Nil keeps the FP32 functional path (with INT8
	// weights dequantized at compile time), preserving bit-exact parity
	// with the host engine.
	Schema *nn.QuantSchema
	// EngineOptions configure the host engine that provides the
	// functional execution.
	EngineOptions []inference.Option
}

// NewBackend wraps a device, running it at its best supported precision.
func NewBackend(d *Device) *Backend {
	return &Backend{Device: d, Precision: d.BestPrecision()}
}

// NewQuantizedBackend wraps a device for native INT8 execution under
// the given calibration schema.
func NewQuantizedBackend(d *Device, schema *nn.QuantSchema) *Backend {
	return &Backend{Device: d, Precision: tensor.INT8, Schema: schema}
}

// Name implements inference.Backend.
func (b *Backend) Name() string { return "accel:" + b.Device.Name }

// Compile implements inference.Backend: it compiles the graph on the
// host engine for functional execution and derives the device-model
// workload once, so every later latency prediction is a closed-form
// roofline evaluation.
func (b *Backend) Compile(g *nn.Graph, opts ...inference.Option) (inference.Executable, error) {
	if b.Device == nil {
		return nil, fmt.Errorf("accel: backend has no device")
	}
	if !b.Device.Supports(b.Precision) {
		return nil, fmt.Errorf("accel: %s does not support %s", b.Device.Name, b.Precision)
	}
	engOpts := append(append([]inference.Option(nil), b.EngineOptions...), opts...)
	var exec inference.Executable
	quantized := false
	if b.Precision == tensor.INT8 && b.Schema != nil {
		q, err := inference.CompileQuantized(g, b.Schema, engOpts...)
		switch {
		case err == nil:
			exec, quantized = q, true
		case errors.Is(err, inference.ErrNotQuantizable):
			// Schema does not cover this graph: degrade to the FP32
			// functional path rather than failing the deploy.
		default:
			return nil, err
		}
	}
	if exec == nil {
		eng, err := inference.Compile(g, engOpts...)
		if err != nil {
			return nil, err
		}
		exec = eng
	}
	// The workload derivation needs batch-1 shapes; snapshot and restore
	// OutShapes so Compile stays observably side-effect free, matching
	// inference.Compile.
	saved := make([]tensor.Shape, len(g.Nodes))
	for i, n := range g.Nodes {
		saved[i] = n.OutShape
	}
	if err := g.InferShapes(1); err != nil {
		return nil, err
	}
	w, err := WorkloadFromGraph(g, b.Precision)
	for i, n := range g.Nodes {
		n.OutShape = saved[i]
	}
	if err != nil {
		return nil, err
	}
	return &Program{exec: exec, device: b.Device, workload: w, precision: b.Precision, quantized: quantized}, nil
}

var _ inference.Backend = (*Backend)(nil)

// Program is a model compiled for a simulated accelerator: the embedded
// host executable supplies functional execution (the FP32 engine, or
// the native quantized engine for INT8 deployments with a calibration
// schema), and the device model predicts what the target hardware would
// measure.
type Program struct {
	exec      inference.Executable
	device    *Device
	workload  Workload
	precision tensor.DType
	quantized bool
}

var _ inference.Executable = (*Program)(nil)

// Run implements inference.Executable.
func (p *Program) Run(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return p.exec.Run(inputs)
}

// singleRunner is the RunSingle convenience both host engines provide.
type singleRunner interface {
	RunSingle(*tensor.Tensor) (*tensor.Tensor, error)
}

// RunSingle is the single-tensor shortcut for 1-in/1-out graphs.
func (p *Program) RunSingle(in *tensor.Tensor) (*tensor.Tensor, error) {
	return p.exec.(singleRunner).RunSingle(in)
}

// Device returns the modeled device.
func (p *Program) Device() *Device { return p.device }

// Executable returns the host executable providing functional
// execution.
func (p *Program) Executable() inference.Executable { return p.exec }

// HostEngine returns the host FP32 engine backing the program, or nil
// when the program executes on the native quantized engine. Serving
// layers use it to reach the shared engine regardless of which backend
// compiled the model.
func (p *Program) HostEngine() *inference.Engine {
	eng, _ := p.exec.(*inference.Engine)
	return eng
}

// Quantized reports whether functional execution runs on the native
// INT8 engine.
func (p *Program) Quantized() bool { return p.quantized }

// Precision returns the precision the device model is evaluated at.
func (p *Program) Precision() tensor.DType { return p.precision }

// Predict evaluates the device's roofline model for a batch of the
// compiled workload.
func (p *Program) Predict(batch int) (Measurement, error) {
	return p.device.Evaluate(p.workload, p.precision, batch)
}

// PredictLatency returns the modeled end-to-end latency for a batch.
func (p *Program) PredictLatency(batch int) (time.Duration, error) {
	m, err := p.Predict(batch)
	if err != nil {
		return 0, err
	}
	return time.Duration(m.LatencyMS * float64(time.Millisecond)), nil
}
