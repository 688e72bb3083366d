package scenario

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"bomw/internal/core"
)

// heldSubmitter accepts the first query with a future it holds open and
// fails the second Submit with an error that is not load shedding.
type heldSubmitter struct {
	held   *core.Future
	calls  atomic.Int32
	failed chan struct{}
}

func (s *heldSubmitter) Submit(context.Context, core.PipelineRequest) (*core.Future, error) {
	if s.calls.Add(1) == 1 {
		return s.held, nil
	}
	close(s.failed)
	return nil, errors.New("target broke")
}

// TestRunLiveWaitsForInflightOnSubmitError: a Submit error stops the
// arrivals, but RunLive must not return before every future it already
// holds has resolved — returning early would abandon the completion
// goroutines mid-write.
func TestRunLiveWaitsForInflightOnSubmitError(t *testing.T) {
	sub := &heldSubmitter{held: core.NewDetachedFuture(), failed: make(chan struct{})}
	p := Params{Kind: Server, Model: "simple", Policy: core.BestThroughput,
		Queries: 2, TargetRate: 1000, SLO: time.Second}
	done := make(chan error, 1)
	go func() {
		_, err := RunLive(context.Background(), LiveTarget{Name: "held", Target: sub}, p, 1)
		done <- err
	}()
	<-sub.failed
	select {
	case err := <-done:
		t.Fatalf("RunLive returned (%v) while a submitted future was unresolved", err)
	case <-time.After(150 * time.Millisecond):
	}
	sub.held.Resolve(core.Completion{Latency: time.Millisecond, Completed: time.Millisecond})
	if err := <-done; err == nil {
		t.Fatal("RunLive swallowed the submit error")
	}
}
