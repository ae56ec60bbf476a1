package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"vedliot/internal/cluster"
	"vedliot/internal/inference"
	"vedliot/internal/tensor"
)

// memberResult is one batch member's completion.
type memberResult struct {
	outs map[string]*tensor.Tensor
	err  error
}

// addInput hands one request straight to a batcher and returns the
// channel its completion arrives on.
func addInput(ctx context.Context, b *batcher, name string, in *tensor.Tensor) <-chan memberResult {
	ch := make(chan memberResult, 1)
	b.add(ctx, map[string]*tensor.Tensor{name: in}, func(outs map[string]*tensor.Tensor, err error) {
		ch <- memberResult{outs, err}
	})
	return ch
}

// await receives a member's completion. The batchers under test hold a
// request for a busy fleet up to a minute, so a completion that takes
// longer than the guard means the batcher held a request it should have
// sent.
func await(t *testing.T, ch <-chan memberResult) memberResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("no completion within 10s: the batcher held the request")
		return memberResult{}
	}
}

// TestBatcherSendsLoneRequestAtOnce sends sequential requests to an
// idle fleet whose batcher would hold a batch for a minute: each finds
// a free slot and goes out at once, alone.
func TestBatcherSendsLoneRequestAtOnce(t *testing.T) {
	srv, _, g := startServer(t, 2, cluster.Config{}, Config{Batch: BatchPolicy{MaxDelay: time.Minute}})
	cl, err := Dial(srv.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const calls = 3
	for i := 0; i < calls; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := cl.InferCtx(ctx, g.Name, map[string]*tensor.Tensor{g.Inputs[0]: testInput(i)})
		cancel()
		if err != nil {
			t.Fatalf("lone request %d on an idle fleet: %v", i, err)
		}
	}
	if st := srv.Stats(); st.Batches != calls || st.BatchedRows != calls {
		t.Errorf("%d submissions carrying %d rows, want %d lone requests", st.Batches, st.BatchedRows, calls)
	}
}

// TestBatcherStacksWhileSlotsHeld holds the one replica with a request
// in flight: the requests that arrive meanwhile leave as one stacked
// submission when the slot frees, each bitwise equal to the reference
// engine.
func TestBatcherStacksWhileSlotsHeld(t *testing.T) {
	sched, g, held := deployHeld(t, cluster.Config{})
	srv := listen(t, sched, Config{Batch: BatchPolicy{MaxDelay: time.Minute}})
	b, err := srv.batcherFor(DefaultTenant, g.Name)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := inference.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	release := held.hold()
	defer release()
	ctx := context.Background()
	const n = 4
	chs := make([]<-chan memberResult, n)
	for i := range chs {
		chs[i] = addInput(ctx, b, g.Inputs[0], testInput(i))
	}
	release()
	for i, ch := range chs {
		r := await(t, ch)
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		want, err := eng.RunSingle(testInput(i))
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := tensor.MaxAbsDiff(want, r.outs[g.Outputs[0]]); d != 0 {
			t.Errorf("request %d diverges from the engine by %g", i, d)
		}
	}
	if st := srv.Stats(); st.Batches != 2 || st.BatchedRows != n {
		t.Errorf("%d submissions carrying %d rows, want the first request alone and %d stacked",
			st.Batches, st.BatchedRows, n-1)
	}
}

// TestBatcherMaxDelayFlushesWhileSlotsHeld holds the one replica with a
// request in flight and queues a request whose caller has already gone:
// MaxDelay flushes it without a free slot, so it resolves with the
// context error while the replica is still held.
func TestBatcherMaxDelayFlushesWhileSlotsHeld(t *testing.T) {
	sched, g, held := deployHeld(t, cluster.Config{})
	srv := listen(t, sched, Config{Batch: BatchPolicy{MaxDelay: 5 * time.Millisecond}})
	b, err := srv.batcherFor(DefaultTenant, g.Name)
	if err != nil {
		t.Fatal(err)
	}
	release := held.hold()
	defer release()
	first := addInput(context.Background(), b, g.Inputs[0], testInput(0))
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if r := await(t, addInput(gone, b, g.Inputs[0], testInput(1))); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("flushed request resolved with %v, want context.Canceled", r.err)
	}
	select {
	case r := <-first:
		t.Fatalf("the held request resolved (%v) before its replica was released", r.err)
	default:
	}
	if st := srv.Stats(); st.Batches != 2 {
		t.Errorf("%d submissions, want 2", st.Batches)
	}
	release()
	if r := await(t, first); r.err != nil {
		t.Fatalf("held request: %v", r.err)
	}
}

// TestBatcherShedReleasesSlot overfills a held one-replica fleet whose
// admission queue holds one ticket, so part of the traffic is shed with
// ErrOverloaded. Every submission, lone or stacked, must give its slot
// back: afterwards no slot is taken and a lone request is served at
// once, although the batcher would hold it a minute for a busy fleet.
func TestBatcherShedReleasesSlot(t *testing.T) {
	// With MaxBatch 2, 2-row requests leave alone the moment they
	// arrive; 1-row requests leave in stacked pairs once the first
	// takes the slot. Either way there are 41 submissions, more than a
	// held replica, its queue, the router and admission can hold.
	for _, tc := range []struct {
		name    string
		rows, n int
	}{{"lone", 2, 41}, {"stacked", 1, 81}} {
		t.Run(tc.name, func(t *testing.T) {
			sched, g, held := deployHeld(t, cluster.Config{QueueDepth: 1})
			srv := listen(t, sched, Config{Batch: BatchPolicy{MaxBatch: 2, MaxDelay: time.Minute}})
			b, err := srv.batcherFor(DefaultTenant, g.Name)
			if err != nil {
				t.Fatal(err)
			}
			release := held.hold()
			defer release()
			in := tensor.New(tensor.FP32, tc.rows, 1, 16, 16)
			for r := 0; r < tc.rows; r++ {
				copy(in.F32[r*256:], testInput(r).F32)
			}
			results := make(chan error, tc.n)
			ctx := context.Background()
			for i := 0; i < tc.n; i++ {
				b.add(ctx, map[string]*tensor.Tensor{g.Inputs[0]: in}, func(_ map[string]*tensor.Tensor, err error) {
					results <- err
				})
			}
			// Nothing completes while the replica is held, so the first
			// result back is a shed.
			if err := <-results; !errors.Is(err, cluster.ErrOverloaded) {
				t.Fatalf("first result %v, want ErrOverloaded", err)
			}
			release()
			shed := 1
			for i := 1; i < tc.n; i++ {
				switch err := <-results; {
				case errors.Is(err, cluster.ErrOverloaded):
					shed++
				case err != nil:
					t.Errorf("unexpected error %v", err)
				}
			}
			t.Logf("%d of %d requests shed", shed, tc.n)
			b.mu.Lock()
			inflight, pending := b.inflight, len(b.pending)
			b.mu.Unlock()
			if inflight != 0 || pending != 0 {
				t.Fatalf("after every request resolved: %d slots taken, %d requests pending", inflight, pending)
			}
			if r := await(t, addInput(ctx, b, g.Inputs[0], testInput(0))); r.err != nil {
				t.Fatalf("request after the sheds: %v", r.err)
			}
		})
	}
}
