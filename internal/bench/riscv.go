package bench

import (
	"math"
	"time"

	"vedliot/internal/inference"
	"vedliot/internal/nn"
	"vedliot/internal/optimize"
	"vedliot/internal/rvbackend"
	"vedliot/internal/tensor"
)

// RISCVBench lowers the smart-mirror gesture classifier onto the
// emulated RISC-V SoC and reproduces the paper's CFU argument (§II-B)
// at model scale: the vector-MAC firmware must be bit-exact against the
// native INT8 engine and at least 2x faster in measured cycles than the
// scalar firmware on the same core. It also reports how fast the
// emulator runs the CFU firmware: modeled device time over host wall
// time.
func RISCVBench() (*Report, error) {
	r := newReport("§II-B — INT8 firmware on the emulated RISC-V+CFU SoC")

	g := nn.GestureNet(16, 4, nn.BuildOptions{Weights: true, Seed: 77})
	samples, err := nn.SyntheticCalibration(g, 3)
	if err != nil {
		return nil, err
	}
	schema, err := optimize.Calibrate(g, samples)
	if err != nil {
		return nil, err
	}
	q, err := inference.CompileQuantized(g, schema, inference.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	const batch = 8
	in, err := nn.SyntheticInput(g, batch, 11)
	if err != nil {
		return nil, err
	}
	want, err := q.Run(in)
	if err != nil {
		return nil, err
	}
	r.linef("model %s, batch %d, native INT8 engine as reference", g.Name, batch)

	cycles := map[bool]uint64{}
	var realtime float64
	for _, noCFU := range []bool{false, true} {
		b := rvbackend.Backend{Schema: schema, NoCFU: noCFU}
		exe, err := b.Compile(g)
		if err != nil {
			return nil, err
		}
		got, err := exe.Run(in)
		if err != nil {
			return nil, err
		}
		p := exe.(*rvbackend.Program)
		cycles[noCFU] = p.CyclesPerInference()
		exact := bitExact(want, got)
		top1 := top1Agreement(want[g.Outputs[0]], got[g.Outputs[0]], batch)
		info := p.Image()
		lat, _ := p.PredictLatency(1)
		r.linef("%-16s %8d cycles/inference  %6.2fms @100MHz  text %d words  bit-exact %v",
			b.Name(), cycles[noCFU], float64(lat)/float64(time.Millisecond), info.TextWords, exact)
		r.check("firmware_bit_exact_"+b.Name(), exact)
		r.check("top1_parity_"+b.Name(), top1 == 1)
		if !noCFU {
			if realtime, err = realtimeRatio(p, in, batch); err != nil {
				return nil, err
			}
		}
	}

	speedup := float64(cycles[true]) / float64(cycles[false])
	r.linef("CFU speedup: %.2fx in measured cycles (scalar %d vs cfu %d)",
		speedup, cycles[true], cycles[false])
	r.check("cfu_speedup_ge_2x", speedup >= 2)
	r.metric("riscv_cfu_cycle_speedup", "x", speedup)
	r.metric("riscv_cfu_cycles_per_inference", "cycles", float64(cycles[false]))
	r.linef("emulator: %.2fx real time (modeled device time / host wall time of a batch-%d Run, best of 3)",
		realtime, batch)
	r.metric("riscv_emulator_realtime_ratio", "x", realtime)
	return r, nil
}

// realtimeRatio returns the program's modeled device time for one
// batch divided by the host wall time of the firmware Run, best of
// three runs. Below 1 the emulator is slower than the device it models.
func realtimeRatio(p *rvbackend.Program, in map[string]*tensor.Tensor, batch int) (float64, error) {
	wall := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := p.Run(in); err != nil {
			return 0, err
		}
		wall = min(wall, time.Since(start))
	}
	modeled, err := p.PredictLatency(batch)
	if err != nil {
		return 0, err
	}
	return float64(modeled) / float64(wall), nil
}

// bitExact reports whether two output maps carry identical FP32 values.
func bitExact(want, got map[string]*tensor.Tensor) bool {
	if len(want) != len(got) {
		return false
	}
	for k, wt := range want {
		gt, ok := got[k]
		if !ok || !wt.Shape.Equal(gt.Shape) {
			return false
		}
		for i := range wt.F32 {
			if wt.F32[i] != gt.F32[i] {
				return false
			}
		}
	}
	return true
}

// top1Agreement returns the fraction of samples whose argmax class
// matches between two batched output tensors.
func top1Agreement(want, got *tensor.Tensor, batch int) float64 {
	if want == nil || got == nil || len(want.F32) != len(got.F32) || batch <= 0 {
		return 0
	}
	per := len(want.F32) / batch
	if per == 0 {
		return 0
	}
	agree := 0
	for s := 0; s < batch; s++ {
		if argmax(want.F32[s*per:(s+1)*per]) == argmax(got.F32[s*per:(s+1)*per]) {
			agree++
		}
	}
	return float64(agree) / float64(batch)
}

func argmax(v []float32) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}
