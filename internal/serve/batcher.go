package serve

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vedliot/internal/cluster"
	"vedliot/internal/tensor"
)

// BatchPolicy shapes socket-boundary coalescing. Each (tenant, model)
// batcher keeps at most one submission in flight per replica: a request
// that finds a free slot goes out at once, together with anything
// pending, and requests that arrive while every slot is taken are
// stacked into the next submission along the leading dimension.
type BatchPolicy struct {
	// MaxBatch caps the rows coalesced into one submission; a batch
	// that reaches it goes out even when every slot is taken. 1
	// disables coalescing (pure passthrough). Default 32.
	MaxBatch int
	// MaxDelay bounds how long a request waits for a busy fleet: the
	// pending batch goes out when it expires even if no slot has
	// freed. Default 1ms.
	MaxDelay time.Duration
}

func (p BatchPolicy) withDefaults() BatchPolicy {
	if p.MaxBatch <= 0 {
		p.MaxBatch = 32
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Millisecond
	}
	return p
}

// batchMember is one request riding a coalesced submission.
type batchMember struct {
	ctx  context.Context
	ins  map[string]*tensor.Tensor
	rows int
	done func(outs map[string]*tensor.Tensor, err error)
}

// batchStats aggregates coalescing telemetry across batchers.
type batchStats struct {
	batches atomic.Int64
	rows    atomic.Int64
}

// batcher coalesces requests for one (tenant, model) pair. It is work
// conserving: it holds a request only while every replica slot is
// taken, so an idle fleet adds no wait to a lone request.
type batcher struct {
	dep    *cluster.Deployment
	policy BatchPolicy
	stats  *batchStats
	// slots is one per replica: requests are held only while this many
	// submissions are in flight. A full batch or an expired MaxDelay
	// goes out regardless, so inflight may exceed it.
	slots int

	mu       sync.Mutex
	pending  []batchMember
	rows     int
	sig      string
	gen      uint64
	inflight int // submissions not yet returned from the fleet
}

func newBatcher(dep *cluster.Deployment, policy BatchPolicy, stats *batchStats) *batcher {
	return &batcher{dep: dep, policy: policy.withDefaults(), stats: stats, slots: max(1, len(dep.Replicas()))}
}

// shapeSig fingerprints a request's batch-compatibility class: the
// sorted input names with their non-leading dimensions. Requests with
// the same signature stack along the leading dimension.
func shapeSig(ins map[string]*tensor.Tensor) (string, int, error) {
	names := make([]string, 0, len(ins))
	for name := range ins {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	rows := 0
	for _, name := range names {
		t := ins[name]
		if t == nil || t.DType != tensor.FP32 {
			return "", 0, fmt.Errorf("serve: input %q is not FP32", name)
		}
		r := 1
		rest := tensor.Shape(nil)
		if len(t.Shape) > 0 {
			r = t.Shape[0]
			rest = t.Shape[1:]
		}
		if r < 1 {
			return "", 0, fmt.Errorf("serve: input %q has empty batch dimension", name)
		}
		if rows == 0 {
			rows = r
		} else if r != rows {
			return "", 0, fmt.Errorf("serve: input %q carries %d rows, other inputs %d", name, r, rows)
		}
		sb.WriteString(name)
		sb.WriteByte('[')
		for _, d := range rest {
			sb.WriteString(strconv.Itoa(d))
			sb.WriteByte(',')
		}
		sb.WriteByte(']')
	}
	if rows == 0 {
		rows = 1
	}
	return sb.String(), rows, nil
}

// add enqueues one request for coalescing. done fires exactly once,
// from a batcher goroutine, with the request's own output rows.
func (b *batcher) add(ctx context.Context, ins map[string]*tensor.Tensor, done func(map[string]*tensor.Tensor, error)) {
	sig, rows, err := shapeSig(ins)
	if err != nil {
		done(nil, err)
		return
	}
	m := batchMember{ctx: ctx, ins: ins, rows: rows, done: done}

	b.mu.Lock()
	defer b.mu.Unlock()
	// A shape class that cannot stack with the waiting batch flushes it
	// early rather than delaying either class.
	if len(b.pending) > 0 && sig != b.sig {
		b.flushLocked()
	}
	if len(b.pending) == 0 {
		b.sig = sig
	}
	b.pending = append(b.pending, m)
	b.rows += rows
	switch {
	case b.inflight < b.slots || b.rows >= b.policy.MaxBatch:
		b.flushLocked()
	case len(b.pending) == 1:
		// Every slot is taken: the batch waits for a completion, but
		// never longer than MaxDelay.
		gen := b.gen
		time.AfterFunc(b.policy.MaxDelay, func() {
			b.mu.Lock()
			defer b.mu.Unlock()
			// A generation bump means this batch already flushed; the
			// timer is stale.
			if b.gen == gen && len(b.pending) > 0 {
				b.flushLocked()
			}
		})
	}
}

// flushLocked hands the waiting batch to a submission goroutine, which
// takes a slot until it completes. Callers hold b.mu.
func (b *batcher) flushLocked() {
	members := b.pending
	b.pending = nil
	b.rows = 0
	b.gen++
	b.inflight++
	go b.submit(members)
}

// release frees a submission's slot and, when a slot is then free,
// flushes what queued meanwhile.
func (b *batcher) release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.inflight--
	if b.inflight < b.slots && len(b.pending) > 0 {
		b.flushLocked()
	}
}

// submit stacks the members' inputs, routes one cluster submission and
// splits the output rows back to each member. The slot is released on
// every outcome, before any member resolves, so a caller that sends its
// next request on this reply finds the slot free.
func (b *batcher) submit(members []batchMember) {
	b.stats.batches.Add(1)
	totalRows := 0
	for _, m := range members {
		totalRows += m.rows
	}
	b.stats.rows.Add(int64(totalRows))

	// Single member: passthrough, keeping the member's context so
	// cancellation still reaches the queue.
	if len(members) == 1 {
		m := members[0]
		outs, err := b.dep.InferCtx(m.ctx, m.ins)
		b.release()
		m.done(outs, err)
		return
	}

	ins, err := stackInputs(members, totalRows)
	var outs map[string]*tensor.Tensor
	if err == nil {
		// A merged batch runs under a background context: one member's
		// disconnect must not cancel the rest of the batch.
		outs, err = b.dep.InferCtx(context.Background(), ins)
	}
	b.release()
	if err != nil {
		for _, m := range members {
			m.done(nil, err)
		}
		return
	}
	row := 0
	for _, m := range members {
		part, err := sliceRows(outs, row, m.rows, totalRows)
		m.done(part, err)
		row += m.rows
	}
}

// stackInputs concatenates each input across members along the leading
// dimension. Shape compatibility is guaranteed by the batcher's
// signature check.
func stackInputs(members []batchMember, totalRows int) (map[string]*tensor.Tensor, error) {
	stacked := make(map[string]*tensor.Tensor, len(members[0].ins))
	for name, first := range members[0].ins {
		rest := tensor.Shape(nil)
		if len(first.Shape) > 0 {
			rest = first.Shape[1:]
		}
		shape := append(tensor.Shape{totalRows}, rest...)
		out := tensor.New(tensor.FP32, shape...)
		off := 0
		for _, m := range members {
			t := m.ins[name]
			if t == nil {
				return nil, fmt.Errorf("serve: batch member missing input %q", name)
			}
			off += copy(out.F32[off:], t.F32)
		}
		if off != len(out.F32) {
			return nil, fmt.Errorf("serve: input %q stacked %d of %d elements", name, off, len(out.F32))
		}
		stacked[name] = out
	}
	return stacked, nil
}

// sliceRows extracts one member's rows from each batched output.
func sliceRows(outs map[string]*tensor.Tensor, row, rows, totalRows int) (map[string]*tensor.Tensor, error) {
	part := make(map[string]*tensor.Tensor, len(outs))
	for name, t := range outs {
		if len(t.Shape) == 0 || t.Shape[0] != totalRows {
			return nil, fmt.Errorf("serve: output %q shape %v does not carry the %d batched rows", name, t.Shape, totalRows)
		}
		rowSize := t.NumElements() / totalRows
		shape := append(tensor.Shape{rows}, t.Shape[1:]...)
		slice := tensor.New(tensor.FP32, shape...)
		copy(slice.F32, t.F32[row*rowSize:(row+rows)*rowSize])
		part[name] = slice
	}
	return part, nil
}
