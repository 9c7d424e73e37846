// Golden corpus for sendlock, including the reproduction of the
// gateway's shardMsg deadlock shape: a blocking send under the stage
// mutex with the cancellation escape missing. Loaded as
// repro/internal/sendlocktest.
package sendlocktest

import (
	"context"
	"sync"
)

// shardLike mirrors the gateway's shard: a shared stage guarded by a
// mutex, a bounded queue consumed by a worker that itself needs the
// mutex to finish.
type shardLike struct {
	mu sync.Mutex
	in chan []int
}

// The deadlock: under backpressure the send blocks with mu held; the
// worker draining `in` eventually needs mu (idle stage take, stats, drain
// accounting) and blocks behind it — nobody ever receives.
func (s *shardLike) ingestDeadlock(batch []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.in <- batch // want "sendlock: blocking channel send on s.in while holding s.mu"
}

// The sanctioned shape (Gateway.Ingest): a select send with a
// cancellation alternative, so the lock always unblocks.
func (s *shardLike) ingestGuarded(ctx context.Context, batch []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.in <- batch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// All-send select with no default: every case can block, so the select
// provides no escape.
func (s *shardLike) fanout(a, b chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "sendlock: select with only send cases and no default while holding s.mu"
	case a <- 1:
	case b <- 2:
	}
}

// Wait under a lock inverts the dependency: the waited-on goroutines
// may need the same lock to finish.
func (s *shardLike) waitUnder(wg *sync.WaitGroup) {
	s.mu.Lock()
	wg.Wait() // want "sendlock: wg.Wait while holding s.mu"
	s.mu.Unlock()
}

// A straight-line unlock ends the held region: sends after it are free.
func (s *shardLike) sendAfter(batch []int) {
	s.mu.Lock()
	s.mu.Unlock()
	s.in <- batch
}

// A default clause is an escape (the shape of Gateway.Ingest's wake-up
// send to an idle worker).
func (s *shardLike) wakeLike() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.in <- nil:
	default:
	}
}

// Spawned bodies do not hold the caller's lock.
func (s *shardLike) spawnUnder(out chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() { out <- 1 }()
}
