// Package workpool is a bounded worker pool with first-error
// propagation. It is a leaf package so the serving tier can fan work
// out without linking the experiment harness.
package workpool

import (
	"fmt"
	"runtime"
	"sync"
)

// Pool runs independent tasks concurrently, at most Workers at once.
// Each submitted task must own all of its mutable state (models,
// detectors, RNG streams); callers satisfy this by construction — every
// task builds its own model from its own seed and only shares immutable
// slices.
//
// Determinism is preserved: concurrency changes scheduling, never the
// per-task computation, and results are written to pre-assigned slots
// rather than appended.
type Pool struct {
	sem chan struct{}
	wg  sync.WaitGroup

	mu  sync.Mutex
	err error
}

// New returns a pool running at most workers tasks at once;
// workers <= 0 means GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers reports the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// Go schedules fn, blocking while all workers are busy (so a huge task
// list never materialises a goroutine per task). The first non-nil
// error is retained for Wait; a panicking task is recovered into an
// error rather than killing the process from an unjoinable goroutine.
func (p *Pool) Go(fn func() error) {
	p.wg.Add(1)
	p.sem <- struct{}{}
	go func() {
		defer func() {
			if r := recover(); r != nil {
				p.setErr(fmt.Errorf("workpool: task panicked: %v", r))
			}
			<-p.sem
			p.wg.Done()
		}()
		if err := fn(); err != nil {
			p.setErr(err)
		}
	}()
}

func (p *Pool) setErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// Wait blocks until every scheduled task has finished and returns the
// first error any of them produced. The pool is reusable after Wait
// (the retained error is cleared).
func (p *Pool) Wait() error {
	p.wg.Wait()
	p.mu.Lock()
	err := p.err
	p.err = nil
	p.mu.Unlock()
	return err
}
