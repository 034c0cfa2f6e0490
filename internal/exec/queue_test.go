package exec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestQueueRunsEverythingAccepted submits a burst and proves every
// accepted task runs exactly once.
func TestQueueRunsEverythingAccepted(t *testing.T) {
	q := NewQueue(4, 64, PoolMetrics{})
	var ran atomic.Int32
	accepted := 0
	for i := 0; i < 64; i++ {
		if err := q.Submit(func() { ran.Add(1) }); err == nil {
			accepted++
		}
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if int(ran.Load()) != accepted {
		t.Errorf("ran %d of %d accepted tasks", ran.Load(), accepted)
	}
}

// TestQueueSaturation fills the backlog behind a blocked worker and
// proves Submit fails fast with ErrSaturated instead of blocking.
func TestQueueSaturation(t *testing.T) {
	block := make(chan struct{})
	q := NewQueue(1, 2, PoolMetrics{})
	if err := q.Submit(func() { <-block }); err != nil {
		t.Fatal(err)
	}
	// The worker dequeues asynchronously; keep filling until the bounded
	// channel pushes back.
	saturated := false
	for i := 0; i < 10 && !saturated; i++ {
		err := q.Submit(func() { <-block })
		if errors.Is(err, ErrSaturated) {
			saturated = true
		} else if err != nil {
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if !saturated {
		t.Fatal("backlog never saturated")
	}
	if q.Backlog() == 0 {
		t.Error("saturated queue reports empty backlog")
	}
	close(block)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestQueueSubmitAfterDrain pins the draining contract: once Drain is
// called, Submit returns ErrDraining and the task never runs.
func TestQueueSubmitAfterDrain(t *testing.T) {
	q := NewQueue(1, 4, PoolMetrics{})
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !q.Draining() {
		t.Error("Draining() = false after Drain")
	}
	err := q.Submit(func() { t.Error("task ran after drain") })
	if !errors.Is(err, ErrDraining) {
		t.Errorf("Submit after drain = %v, want ErrDraining", err)
	}
	time.Sleep(20 * time.Millisecond) // would surface the stray execution
}

// TestQueueDrainDeadline proves Drain honors its context when a task
// never finishes, and that a later unbounded Drain still completes once
// the task does.
func TestQueueDrainDeadline(t *testing.T) {
	block := make(chan struct{})
	q := NewQueue(1, 1, PoolMetrics{})
	if err := q.Submit(func() { <-block }); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with stuck task = %v, want deadline exceeded", err)
	}
	close(block)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestQueueConcurrentSubmitDrain races submitters against Drain under
// the race detector: every Submit must either be accepted (and run) or
// rejected, never lost, and nothing may panic on the closed channel.
func TestQueueConcurrentSubmitDrain(t *testing.T) {
	q := NewQueue(2, 8, PoolMetrics{})
	var ran, ok atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := q.Submit(func() { ran.Add(1) }); err == nil {
					ok.Add(1)
				}
			}
		}()
	}
	time.Sleep(time.Millisecond)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	// Accepted-but-not-yet-run tasks still run even though Drain was
	// called concurrently; give the invariant a moment to settle.
	deadline := time.Now().Add(2 * time.Second)
	for ran.Load() != ok.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ran.Load() != ok.Load() {
		t.Errorf("accepted %d tasks but ran %d", ok.Load(), ran.Load())
	}
}

// TestQueueNilTask pins the no-op contract for nil submissions.
func TestQueueNilTask(t *testing.T) {
	q := NewQueue(1, 1, PoolMetrics{})
	if err := q.Submit(nil); err != nil {
		t.Errorf("Submit(nil) = %v, want nil", err)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQueueSubmitCountsBeforeEnqueue is the regression test for the
// accept/run race in Submit: the in-flight count must be raised before
// the task becomes visible to a worker, or a fast worker's Done runs
// first and panics with a negative WaitGroup counter. Hammering a small
// pool with no-op tasks makes that window likely within a few thousand
// submissions.
func TestQueueSubmitCountsBeforeEnqueue(t *testing.T) {
	q := NewQueue(2, 64, PoolMetrics{})
	noop := func() {}
	for i := 0; i < 200_000; i++ {
		for {
			err := q.Submit(noop)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrSaturated) {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
