package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// A group supervises the worker goroutines of one Map: the first task to
// return a non-nil error (or panic) cancels the group's context, and
// Wait returns that first error after every task has finished.
type group struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup

	errOnce sync.Once
	err     error
}

// newGroup returns a group and the derived context its tasks should
// honor. The context is canceled when a task fails or when Wait returns,
// whichever comes first.
func newGroup(ctx context.Context) (*group, context.Context) {
	gctx, cancel := context.WithCancel(ctx)
	return &group{cancel: cancel}, gctx
}

// Go launches fn as a supervised task. A panicking fn is recovered into
// an error carrying the panic value and stack, so one broken task fails
// the group instead of the process.
func (g *group) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := protect(fn); err != nil {
			g.fail(err)
		}
	}()
}

// fail records err as the group's error unless one is already recorded,
// and cancels the group's context.
func (g *group) fail(err error) {
	g.errOnce.Do(func() {
		g.err = err
		g.cancel()
	})
}

// Wait blocks until every task launched with Go has returned, cancels
// the group's context, and returns the first error (or recovered panic)
// observed.
func (g *group) Wait() error {
	g.wg.Wait()
	g.cancel()
	return g.err
}

// protect runs fn, converting a panic into an error.
func protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 4096)
			buf = buf[:runtime.Stack(buf, false)]
			err = fmt.Errorf("parallel: task panic: %v\n%s", r, buf)
		}
	}()
	return fn()
}

// workers normalizes a worker-count knob: <= 0 means NumCPU, and the
// count never exceeds the number of items (spawning idle workers is
// pure overhead).
func workers(requested, items int) int {
	w := requested
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEach runs fn(ctx, i) for every i in [0, n) on at most the given
// number of supervised workers, whatever that number. Indexes are
// dispatched in order; after the first failure (or once ctx is done) the
// remaining indexes are skipped, the context is canceled, and the first
// error is returned.
func forEach(ctx context.Context, workerCount, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	g, gctx := newGroup(ctx)
	idx := make(chan int)
	for range workers(workerCount, n) {
		g.Go(func() error {
			for i := range idx {
				if err := gctx.Err(); err != nil {
					return err
				}
				if err := fn(gctx, i); err != nil {
					return err
				}
			}
			return nil
		})
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-gctx.Done():
			// A worker failed or ctx is done; stop dispatching. The
			// failure was recorded first, so this records ctx's error
			// only when the caller canceled.
			g.fail(gctx.Err())
			break feed
		}
	}
	close(idx)
	return g.Wait()
}

// Map runs fn for every index in [0, n) on at most the given number of
// workers (<= 0: NumCPU) and collects the results by index: out[i] is
// fn's result for i, whatever order the workers finished in, so merging
// out in index order is equivalent to a serial loop. Every worker count,
// 1 included, runs through the same supervised workers: a panicking fn
// is recovered into an error, the first error cancels the context the
// other calls see and skips the indexes not yet started, and Map returns
// that error and discards the results.
func Map[T any](ctx context.Context, workerCount, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	err := forEach(ctx, workerCount, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
