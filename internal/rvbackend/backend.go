package rvbackend

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"vedliot/internal/cfu"
	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/riscv"
	"vedliot/internal/soc"
	"vedliot/internal/tensor"
)

// DefaultClockHz is the nominal SoC clock used to turn measured cycles
// into latency predictions (a VexRiscv-class core on a mid-range FPGA).
const DefaultClockHz = 100e6

// maxSegmentSteps bounds one firmware segment run; generous against the
// largest supported layer, so only a codegen bug (runaway loop) hits it.
const maxSegmentSteps = 500_000_000

// Backend compiles INT8 graphs to firmware for the emulated RISC-V SoC.
// It satisfies inference.Backend, so everything that schedules work
// against the native engine (the batch server, cluster placement, the
// bench harness) can target the SoC unchanged.
type Backend struct {
	// Schema is the calibration schema; compilation fails without one
	// (the SoC path is integer-only).
	Schema *nn.QuantSchema
	// NoCFU drops the vector-MAC unit and emits scalar MUL/ADD inner
	// loops — the control arm of the CFU speedup measurement.
	NoCFU bool
	// ClockHz overrides DefaultClockHz for latency predictions.
	ClockHz float64
}

// Name implements inference.Backend.
func (b Backend) Name() string {
	if b.NoCFU {
		return "riscv-soc-scalar"
	}
	return "riscv-soc-cfu"
}

// Compile lowers the graph through the shared quantized plan, assembles
// firmware, stages constants in SoC RAM and runs one warmup inference
// so cycle-based latency predictions are available immediately.
func (b Backend) Compile(g *nn.Graph, opts ...inference.Option) (inference.Executable, error) {
	plan, err := inference.BuildQuantPlan(g, b.Schema)
	if err != nil {
		return nil, err
	}
	img, err := buildImage(plan, !b.NoCFU)
	if err != nil {
		return nil, err
	}
	var unit riscv.CFU
	if !b.NoCFU {
		unit = &cfu.VectorMAC{}
	}
	m, err := soc.NewMachine(soc.Config{Name: plan.Name + "-" + b.Name(), RAMSize: img.ramSize, CFU: unit})
	if err != nil {
		return nil, err
	}
	copy(m.RAM.Bytes(), img.data)
	if err := m.RAM.LoadWords(img.textOff-soc.RAMBase, img.text); err != nil {
		return nil, err
	}
	clock := b.ClockHz
	if clock <= 0 {
		clock = DefaultClockHz
	}
	p := &Program{name: b.Name(), plan: plan, img: img, m: m, clockHz: clock}
	if err := p.warmup(); err != nil {
		return nil, fmt.Errorf("rvbackend: warmup inference: %w", err)
	}
	return p, nil
}

var _ inference.Backend = Backend{}

// Program is a compiled model resident on one emulated SoC. It
// implements inference.Executable; calls serialize on the single
// machine (one hart, one accelerator port — concurrency is the
// cluster's job, not the chassis module's).
type Program struct {
	name    string
	plan    *inference.QuantPlan
	img     *image
	m       *soc.Machine
	clockHz float64

	mu     sync.Mutex
	cycles uint64 // measured cycles per inference, last Run average
}

// Name reports the compiling backend's name.
func (p *Program) Name() string { return p.name }

// Image exposes the firmware build for tests and golden dumps.
func (p *Program) Image() *FirmwareInfo {
	return &FirmwareInfo{
		TextWords: len(p.img.text),
		DataBytes: len(p.img.data),
		RAMSize:   p.img.ramSize,
		Segments:  len(p.img.segStarts),
		UseCFU:    p.img.useCFU,
	}
}

// FirmwareInfo summarizes a compiled firmware image.
type FirmwareInfo struct {
	// TextWords is the generated instruction count.
	TextWords int
	// DataBytes is the const-pool size (mailbox through patch scratch).
	DataBytes int
	// RAMSize is the provisioned SoC RAM.
	RAMSize uint32
	// Segments is the number of firmware entry points.
	Segments int
	// UseCFU reports whether inner loops issue vector-MAC instructions.
	UseCFU bool
}

// resolveInputs validates the input map against per-sample shapes and
// returns FP32 views plus the batch, mirroring the native engines.
func (p *Program) resolveInputs(inputs map[string]*tensor.Tensor) ([][]float32, int, error) {
	if len(p.plan.InputNames) == 0 {
		return nil, 0, fmt.Errorf("rvbackend: graph declares no inputs")
	}
	bufs := make([][]float32, len(p.plan.InputNames))
	batch := 0
	for i, name := range p.plan.InputNames {
		t, ok := inputs[name]
		if !ok || t == nil {
			return nil, 0, fmt.Errorf("rvbackend: missing input %q", name)
		}
		if len(t.Shape) == 0 {
			return nil, 0, fmt.Errorf("rvbackend: input %q is a scalar, want batched tensor", name)
		}
		per := p.plan.Values[p.plan.InputVals[i]].Shape
		want := append(tensor.Shape{t.Shape[0]}, per...)
		if !t.Shape.Equal(want) {
			return nil, 0, fmt.Errorf("rvbackend: input %q has shape %v, want %v", name, t.Shape, want)
		}
		if i == 0 {
			batch = t.Shape[0]
		} else if t.Shape[0] != batch {
			return nil, 0, fmt.Errorf("rvbackend: input %q has batch %d, want %d", name, t.Shape[0], batch)
		}
		if t.DType == tensor.FP32 {
			bufs[i] = t.F32
		} else {
			bufs[i] = t.Float32s()
		}
	}
	if batch <= 0 {
		return nil, 0, fmt.Errorf("rvbackend: batch must be positive")
	}
	return bufs, batch, nil
}

// Run implements inference.Executable: quantize inputs into SoC RAM,
// drive the firmware segments (host islands in between), read back and
// dequantize outputs. Output conventions mirror QuantEngine.Run: an
// output resolving to an input value passes the caller's tensor
// through, and a name listed twice shares one tensor.
func (p *Program) Run(inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	bufs, batch, err := p.resolveInputs(inputs)
	if err != nil {
		return nil, err
	}
	inputIdx := make(map[int]int, len(p.plan.InputVals))
	for i, v := range p.plan.InputVals {
		inputIdx[v] = i
	}
	result := make(map[string]*tensor.Tensor, len(p.plan.OutputNames))
	type outBinding struct {
		val int
		t   *tensor.Tensor
	}
	var outs []outBinding
	for i, name := range p.plan.OutputNames {
		v := p.plan.OutputVals[i]
		if j, ok := inputIdx[v]; ok {
			result[name] = inputs[p.plan.InputNames[j]]
			continue
		}
		if _, done := result[name]; done {
			continue
		}
		t := tensor.New(tensor.FP32, append(tensor.Shape{batch}, p.plan.Values[v].Shape...)...)
		result[name] = t
		outs = append(outs, outBinding{val: v, t: t})
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	total := uint64(0)
	for s := 0; s < batch; s++ {
		cyc, err := p.runSample(bufs, s)
		if err != nil {
			return nil, err
		}
		total += cyc
		ram := p.m.RAM.Bytes()
		for _, ob := range outs {
			val := p.plan.Values[ob.val]
			codes := readCodes(ram, p.img.bufAddr[ob.val]-soc.RAMBase, val.Elems)
			tensor.DequantizeSlice(ob.t.F32[s*val.Elems:(s+1)*val.Elems], codes, val.QP)
		}
	}
	p.cycles = total / uint64(batch)
	return result, nil
}

// runSample stages one sample's inputs, runs the firmware segments with
// host islands interleaved, and returns the firmware-measured cycles.
func (p *Program) runSample(bufs [][]float32, s int) (uint64, error) {
	ram := p.m.RAM.Bytes()
	codes := make([]int8, 0, 256)
	for i, v := range p.plan.InputVals {
		val := p.plan.Values[v]
		if cap(codes) < val.Elems {
			codes = make([]int8, val.Elems)
		}
		codes = codes[:val.Elems]
		tensor.QuantizeSlice(codes, bufs[i][s*val.Elems:(s+1)*val.Elems], val.QP)
		writeCodes(ram, p.img.bufAddr[v]-soc.RAMBase, codes)
	}
	mb := p.img.mailbox - soc.RAMBase
	for j := uint32(0); j < 8; j++ {
		ram[mb+j] = 0
	}
	p.m.Finisher.Done = false
	p.m.Finisher.Pass = false
	for _, act := range p.img.actions {
		if act.segment >= 0 {
			p.m.Core.Halted = false
			p.m.Core.PC = p.img.segStarts[act.segment]
			if _, err := p.m.Run(maxSegmentSteps); err != nil {
				return 0, err
			}
			if !p.m.Core.Halted {
				return 0, fmt.Errorf("rvbackend: segment %d did not halt", act.segment)
			}
			continue
		}
		st := &p.plan.Steps[act.step]
		srcs := make([][]int8, len(st.Ins))
		for k, in := range st.Ins {
			srcs[k] = readCodes(ram, p.img.bufAddr[in]-soc.RAMBase, p.plan.Values[in].Elems)
		}
		dst := make([]int8, p.plan.Values[st.Out].Elems)
		if err := st.Island(1, dst, srcs); err != nil {
			return 0, fmt.Errorf("rvbackend: island step %q: %w", st.Name, err)
		}
		writeCodes(ram, p.img.bufAddr[st.Out]-soc.RAMBase, dst)
	}
	if len(p.img.segStarts) > 0 {
		if err := p.m.RequireFinished(); err != nil {
			return 0, err
		}
	}
	le := binary.LittleEndian
	return uint64(le.Uint32(ram[mb:])) | uint64(le.Uint32(ram[mb+4:]))<<32, nil
}

// CyclesPerInference returns the firmware-measured per-sample cycle
// count from the most recent Run (the warmup inference at compile time
// seeds it).
func (p *Program) CyclesPerInference() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cycles
}

// PredictLatency estimates wall time for a batch from measured cycles
// and the nominal clock — the cost signal the cluster router consumes,
// grounded in cycle-accurate execution rather than roofline arithmetic.
func (p *Program) PredictLatency(batch int) (time.Duration, error) {
	if batch <= 0 {
		return 0, fmt.Errorf("rvbackend: batch must be positive")
	}
	cyc := p.CyclesPerInference()
	if cyc == 0 {
		return 0, fmt.Errorf("rvbackend: no measured cycles yet")
	}
	sec := float64(cyc) * float64(batch) / p.clockHz
	return time.Duration(sec * float64(time.Second)), nil
}

var _ inference.Executable = (*Program)(nil)

// warmup runs one zero-valued inference to seed the cycle measurement.
func (p *Program) warmup() error {
	in := make(map[string]*tensor.Tensor, len(p.plan.InputNames))
	for i, name := range p.plan.InputNames {
		per := p.plan.Values[p.plan.InputVals[i]].Shape
		in[name] = tensor.New(tensor.FP32, append(tensor.Shape{1}, per...)...)
	}
	_, err := p.Run(in)
	return err
}

func readCodes(ram []byte, off uint32, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(ram[off+uint32(i)])
	}
	return out
}

func writeCodes(ram []byte, off uint32, codes []int8) {
	for i, c := range codes {
		ram[off+uint32(i)] = byte(c)
	}
}
