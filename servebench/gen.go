package main

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"vedliot/internal/cluster"
	"vedliot/internal/serve"
	"vedliot/internal/tensor"
)

// openWorkers is the fixed pool of goroutines that carry requests
// through their blocking calls. It bounds the requests in
// flight; if all are busy the sender runs late and gen.lag_p99_ms
// shows it.
const openWorkers = 64

// schedule is the traffic of one phase: the pre-built request each
// send carries and when it is due.
type schedule struct {
	// due is the offset of each send from the phase start.
	due []time.Duration
	req []int32
}

// openSchedule draws a Poisson arrival process at rate over seconds.
// The number of arrivals is fixed at rate×seconds and their times are
// independent uniforms, which is a Poisson process conditioned on its
// count: the offered load is exact, the burstiness is Poisson.
func openSchedule(rate, seconds float64, nReqs int, rng *rand.Rand) schedule {
	n := int(math.Round(rate * seconds))
	if n < 1 {
		n = 1
	}
	s := schedule{due: make([]time.Duration, n), req: make([]int32, n)}
	for i := range s.due {
		s.due[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	sort.Slice(s.due, func(i, j int) bool { return s.due[i] < s.due[j] })
	for i := range s.req {
		s.req[i] = int32(rng.Intn(nReqs))
	}
	return s
}

// call issues request i into one layer's entry point. span is the
// request's span id for child spans, -1 when untraced.
type call func(ctx context.Context, i int, span int32, ins map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error)

type outcome uint8

const (
	outOK outcome = iota
	outWrong
	outShed
	outFailed
)

// sample is one request's record. lag is how late the generator
// handed it to a worker; lat runs from its due time to the reply.
type sample struct {
	lag, lat time.Duration
	out      outcome
}

// phase is the record of one traffic phase.
type phase struct {
	samples []sample
	elapsed time.Duration
	// powerW is the mean modeled chassis power over the phase, zero
	// when not sampled.
	powerW float64
}

// driver replays a schedule against one entry point in an open loop:
// it sends on the schedule whatever the replies do. One sender
// goroutine paces the sends and a fixed set of workers carries them,
// so the generator spawns nothing per request.
type driver struct {
	sched  schedule
	reqs   []request
	pool   *refPool
	call   call
	rec    *recorder      // nil: untraced
	span   string         // span name of one request at this layer
	parent int32          // span id of the phase
	power  func() float64 // modeled chassis power, sampled when set
}

func (d *driver) run(ctx context.Context) phase {
	due := d.sched.due
	samples := make([]sample, len(due))
	work := make(chan int)

	stopPower := d.samplePower()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(openWorkers)
	for k := 0; k < openWorkers; k++ {
		go func() {
			defer wg.Done()
			for i := range work {
				d.one(ctx, i, start.Add(due[i]), &samples[i])
			}
		}()
	}
	for i, at := range due {
		if wait := time.Until(start.Add(at)); wait > 0 {
			time.Sleep(wait)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	p := phase{samples: samples, elapsed: time.Since(start)}
	p.powerW = stopPower()
	return p
}

// one carries request i through the entry point and records it.
func (d *driver) one(ctx context.Context, i int, dueAt time.Time, s *sample) {
	s.lag = time.Since(dueAt)
	req := &d.reqs[d.sched.req[i]]
	id := int32(-1)
	if d.rec != nil {
		id = d.rec.begin(d.span, d.parent, i)
	}
	outs, err := d.call(ctx, i, id, req.ins)
	if d.rec != nil {
		d.rec.end(id)
	}
	s.lat = time.Since(dueAt)
	var retry *serve.RetryAfterError
	switch {
	case errors.As(err, &retry), errors.Is(err, cluster.ErrOverloaded):
		s.out = outShed
	case err != nil:
		s.out = outFailed
	case !d.pool.check(req, outs):
		s.out = outWrong
	default:
		s.out = outOK
	}
}

// samplePower starts sampling the modeled chassis power at a fixed
// period and returns the function that stops it and yields the mean.
func (d *driver) samplePower() func() float64 {
	if d.power == nil {
		return func() float64 { return 0 }
	}
	stop := make(chan struct{})
	mean := make(chan float64, 1)
	go func() {
		tk := time.NewTicker(time.Millisecond)
		defer tk.Stop()
		sum, n := 0.0, 0
		for {
			select {
			case <-tk.C:
				sum += d.power()
				n++
			case <-stop:
				if n == 0 {
					n, sum = 1, d.power()
				}
				mean <- sum / float64(n)
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-mean
	}
}

// counts tallies a phase's outcomes.
func (p phase) counts() (okN, wrongN, shedN, failedN int) {
	for _, s := range p.samples {
		switch s.out {
		case outOK:
			okN++
		case outWrong:
			wrongN++
		case outShed:
			shedN++
		default:
			failedN++
		}
	}
	return
}

// latencyMS returns the q-quantile of request latency in milliseconds.
// A request that did not complete correctly ranks above every correct
// reply and, where the quantile falls on one, reads as the length of
// the whole phase: it missed any latency limit the run could set.
func (p phase) latencyMS(q float64) float64 {
	lats := make([]float64, len(p.samples))
	for i, s := range p.samples {
		lats[i] = math.Inf(1)
		if s.out == outOK {
			lats[i] = ms(s.lat)
		}
	}
	if v := quantile(lats, q); !math.IsInf(v, 1) {
		return v
	}
	return ms(p.elapsed)
}

// lagMS returns the q-quantile of generator lateness in milliseconds.
func (p phase) lagMS(q float64) float64 {
	lags := make([]float64, len(p.samples))
	for i, s := range p.samples {
		lags[i] = ms(s.lag)
	}
	return quantile(lags, q)
}

// quantile returns the q-quantile of xs by the nearest-rank rule. It
// sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
