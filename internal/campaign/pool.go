package campaign

import (
	"context"
	"runtime"
	"sync"
)

// ForEach runs fn(ctx, w, i) for i in [0, n) on a bounded pool of worker
// goroutines (workers <= 0: GOMAXPROCS) and is the one pool every fan-out
// in the repository uses: RunJobs, the mcfi batch runner and replay, and
// cmd/ttalint -all. w in [0, workers) names the goroutine making the call,
// and no two concurrent calls share one, so callers can keep per-worker
// state (trace lanes, "running" slots) without locking it per index.
// Indexes are handed out in order, cancellation stops the feed and
// interrupts in-flight calls via ctx, and all workers are joined before
// return. The first non-nil error from fn (or ctx.Err() on cancellation)
// is returned; remaining indexes are skipped once an error is seen.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, w, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n <= 0 {
		return ctx.Err()
	}

	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}

	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if failed() || ctx.Err() != nil {
					continue // drain without working
				}
				if err := fn(ctx, w, i); err != nil {
					fail(err)
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idxCh)
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
