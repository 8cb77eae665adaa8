package workpool

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestPoolRunsEverything(t *testing.T) {
	p := New(3)
	var n atomic.Int64
	for i := 0; i < 50; i++ {
		p.Go(func() error { n.Add(1); return nil })
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 50 {
		t.Fatalf("ran %d tasks, want 50", n.Load())
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 2
	p := New(workers)
	var cur, peak atomic.Int64
	for i := 0; i < 20; i++ {
		p.Go(func() error {
			c := cur.Add(1)
			for {
				old := peak.Load()
				if c <= old || peak.CompareAndSwap(old, c) {
					break
				}
			}
			cur.Add(-1)
			return nil
		})
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent tasks, bound is %d", got, workers)
	}
}

func TestPoolFirstErrorWins(t *testing.T) {
	p := New(1) // serial: deterministic completion order
	want := errors.New("boom")
	p.Go(func() error { return want })
	p.Go(func() error { return errors.New("later") })
	if err := p.Wait(); !errors.Is(err, want) {
		t.Fatalf("Wait() = %v, want the first error", err)
	}
	// The retained error is cleared; the pool is reusable.
	p.Go(func() error { return nil })
	if err := p.Wait(); err != nil {
		t.Fatalf("reused pool returned stale error %v", err)
	}
}

func TestPoolRecoversPanics(t *testing.T) {
	p := New(2)
	p.Go(func() error { panic("kaboom") })
	err := p.Wait()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Wait() = %v, want recovered panic", err)
	}
}
