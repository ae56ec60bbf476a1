package main

import (
	"fmt"
	"math"
	"math/rand"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/tensor"
	"vedliot/internal/zoo"
)

// refPool is the seeded input pool with its reference outputs. Every
// request is a stack of pool rows, and a reply is correct when its rows
// bitwise equal one reference for those rows: the FP32 engine's, or on
// INT8 fleets the quantized engine's. Batched rows of both engines are
// bitwise equal to their batch-1 rows, so the per-row references hold
// however the front door and the replicas coalesce requests.
type refPool struct {
	inName, outName string
	// inShape is the per-row input shape (without the batch dimension).
	inShape tensor.Shape
	inRow   int
	outRow  int
	// in holds the pool's input rows back to back.
	in []float32
	// refs holds one reference per engine, each the pool's output rows
	// back to back.
	refs [][]float32
}

// request is one pre-built request: its input map and the pool rows it
// stacks.
type request struct {
	ins  map[string]*tensor.Tensor
	rows []int
}

// newRefPool draws the pool's inputs from the seed and computes their
// reference outputs on freshly built engines, outside the timed set-up.
// A non-nil schema adds the quantized engine's reference.
func newRefPool(w *workload, schema *nn.QuantSchema, rng *rand.Rand) (*refPool, error) {
	entry, err := zoo.Find(w.model)
	if err != nil {
		return nil, err
	}
	g := entry.Build()
	if len(g.Inputs) != 1 || len(g.Outputs) != 1 {
		return nil, fmt.Errorf("model %s: want 1 input and 1 output, have %d and %d", g.Name, len(g.Inputs), len(g.Outputs))
	}
	p := &refPool{
		inName:  g.Inputs[0],
		outName: g.Outputs[0],
		inShape: tensor.Shape(g.Node(g.Inputs[0]).Attrs.Shape).Clone(),
	}
	p.inRow = p.inShape.NumElements()
	p.in = make([]float32, w.poolRows*p.inRow)
	for i := range p.in {
		p.in[i] = rng.Float32()*2 - 1
	}
	engines := []inference.Executable{}
	fp32, err := inference.Compile(g)
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	engines = append(engines, fp32)
	if schema != nil {
		q, err := inference.CompileQuantized(g, schema)
		if err != nil {
			return nil, fmt.Errorf("reference quantized engine: %w", err)
		}
		engines = append(engines, q)
	}
	for _, eng := range engines {
		var ref []float32
		for r := 0; r < w.poolRows; r++ {
			outs, err := eng.Run(p.inputs([]int{r}))
			if err != nil {
				return nil, fmt.Errorf("reference row %d: %w", r, err)
			}
			out := outs[p.outName]
			if out == nil || out.DType != tensor.FP32 {
				return nil, fmt.Errorf("reference row %d: no FP32 output %q", r, p.outName)
			}
			if p.outRow == 0 {
				p.outRow = len(out.F32)
			}
			if len(out.F32) != p.outRow {
				return nil, fmt.Errorf("reference row %d: %d outputs, want %d", r, len(out.F32), p.outRow)
			}
			ref = append(ref, out.F32...)
		}
		p.refs = append(p.refs, ref)
	}
	return p, nil
}

// inputs stacks the given pool rows into one request input map.
func (p *refPool) inputs(rows []int) map[string]*tensor.Tensor {
	t := tensor.New(tensor.FP32, append(tensor.Shape{len(rows)}, p.inShape...)...)
	for i, r := range rows {
		copy(t.F32[i*p.inRow:], p.in[r*p.inRow:(r+1)*p.inRow])
	}
	return map[string]*tensor.Tensor{p.inName: t}
}

// requests pre-builds n requests with seeded row draws, so the send
// loop allocates nothing per request.
func (p *refPool) requests(w *workload, n int, rng *rand.Rand) []request {
	reqs := make([]request, n)
	for i := range reqs {
		rows := make([]int, w.rowsFor(rng))
		for j := range rows {
			rows[j] = rng.Intn(w.poolRows)
		}
		reqs[i] = request{ins: p.inputs(rows), rows: rows}
	}
	return reqs
}

// check reports whether a reply bitwise equals one reference for the
// request's rows.
func (p *refPool) check(req *request, outs map[string]*tensor.Tensor) bool {
	out := outs[p.outName]
	if out == nil || out.DType != tensor.FP32 || len(out.F32) != len(req.rows)*p.outRow {
		return false
	}
	for _, ref := range p.refs {
		if p.matches(ref, req.rows, out.F32) {
			return true
		}
	}
	return false
}

func (p *refPool) matches(ref []float32, rows []int, got []float32) bool {
	for i, r := range rows {
		want := ref[r*p.outRow : (r+1)*p.outRow]
		for j, v := range got[i*p.outRow : (i+1)*p.outRow] {
			if math.Float32bits(v) != math.Float32bits(want[j]) {
				return false
			}
		}
	}
	return true
}

// corrupt flips the lowest mantissa bit of every reference value, so no
// reply can match. The package test uses it to prove the check bites.
func (p *refPool) corrupt() {
	for _, ref := range p.refs {
		for i, v := range ref {
			ref[i] = math.Float32frombits(math.Float32bits(v) ^ 1)
		}
	}
}
