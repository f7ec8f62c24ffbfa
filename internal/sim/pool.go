package sim

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// runPool executes nJobs jobs (identified by index) on a worker pool and
// returns every job error joined in job order (nil if all succeeded).
// newWorker is called once per worker goroutine and returns the job
// function, closing over that worker's scratch buffers. After the first
// failure — or once ctx is cancelled — no further jobs are started; jobs
// already handed to a worker finish (a cancelled ctx makes ctx-aware jobs
// return early) and their errors are collected too. workers <= 0 selects
// GOMAXPROCS. A single worker runs the jobs on the caller's goroutine, so
// state the jobs reuse across calls (memoized algorithm instances) stays
// on the caller's core instead of moving to a fresh goroutine each call.
func runPool(ctx context.Context, nJobs, workers int, newWorker func() func(job int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nJobs {
		workers = nJobs
	}
	if workers == 1 {
		work := newWorker()
		for ji := 0; ji < nJobs && ctx.Err() == nil; ji++ {
			if err := work(ji); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, nJobs)
	ch := make(chan int)
	quit := make(chan struct{})
	var quitOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work := newWorker()
			for ji := range ch {
				if err := work(ji); err != nil {
					errs[ji] = err
					quitOnce.Do(func() { close(quit) })
				}
			}
		}()
	}
feed:
	for ji := 0; ji < nJobs; ji++ {
		select {
		case ch <- ji:
		case <-quit:
			break feed
		case <-ctx.Done():
			break feed
		}
	}
	close(ch)
	wg.Wait()
	return errors.Join(errs...)
}
