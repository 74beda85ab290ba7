package crawler

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(ctx, i) for every i in [0, n) over a pool of workers
// goroutines, the caller's among them, which claim indices in order from a
// shared cursor. One worker is the sequential crawl: items run in index
// order on the caller's goroutine.
//
// The first item error stops the batch: unclaimed items never start, items
// in flight stop before their next attempt, and every item error is
// returned (joined when there are several). Cancellation noise from that
// stop is dropped; a cancelled caller context is returned as is.
func (s *Session) ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	workers = max(1, min(workers, n))
	outer := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		cursor atomic.Int64
		mu     sync.Mutex
		errs   []error
		wg     sync.WaitGroup
	)
	s.m.queued(n)
	work := func() {
		for ctx.Err() == nil {
			i := int(cursor.Add(1) - 1)
			if i >= n {
				return
			}
			err := fn(ctx, i)
			s.m.queued(-1)
			if err == nil {
				continue
			}
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				return
			}
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
			cancel()
			return
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	// Every claimed index below n ran; the rest were never started.
	s.m.queued(min(int(cursor.Load()), n) - n)
	switch len(errs) {
	case 0:
		return outer.Err()
	case 1:
		return errs[0]
	default:
		return errors.Join(errs...)
	}
}
