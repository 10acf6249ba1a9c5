// Package engine is the deterministic parallel fan-out primitive the
// rest of the tree builds on: the experiment harnesses fan Monte-Carlo
// (sweep point, seed) tasks over it, the multi-UAV fleet fans
// per-sector epochs over it, radio fills ground-truth grids one row per
// task, and the skyrand server's worker pool reuses its ordering
// discipline. It is a leaf package (no repo
// imports) precisely so that core, experiments and server can all
// share one engine without cycles.
//
// Determinism contract for task bodies:
//   - derive every RNG from the task index alone, never from shared or
//     ambient state;
//   - build worlds/terrains fresh inside the body (they are cheap next
//     to the epochs they host);
//   - return values, do not append to captured slices.
//
// Under that contract, scheduling can change only *when* a task runs,
// never what it computes or where its result lands, so results are
// byte-identical at any worker count.
package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Panic carries a task-body panic out of a ParallelMap worker
// goroutine. Without capture, a panicking body would crash the whole
// process from inside an engine goroutine that no caller can recover
// around; instead ParallelMap re-raises the panic as a *Panic in the
// caller's goroutine, preserving the original value and the stack of
// the goroutine that actually panicked. A recover() at the job
// boundary (the skyrand worker pool) can then turn a poisoned task
// into an ordinary failed-job record.
type Panic struct {
	Index int    // task index whose body panicked
	Value any    // the original panic value
	Stack []byte // stack of the panicking goroutine
}

func (p *Panic) Error() string { return fmt.Sprintf("task %d panicked: %v", p.Index, p.Value) }

// ParallelMap evaluates body(i) for i in [0, n) across up to workers
// goroutines and returns the results in index order. With one worker
// it degenerates to the plain sequential loop (stopping at the first
// error). With more, every task runs to completion and the
// lowest-index error is returned, so the reported error does not
// depend on goroutine scheduling. A panicking body is re-raised in the
// caller's goroutine as a *Panic; when several tasks panic, the
// lowest-index one wins — like errors, independent of scheduling.
func ParallelMap[T any](workers, n int, body func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if workers > n {
		workers = n
	}
	panics := make([]*Panic, n)
	call := func(i int) (v T, err error) {
		defer func() {
			if r := recover(); r != nil {
				if p, ok := r.(*Panic); ok {
					// A nested ParallelMap (fleet sectors inside an
					// experiment fan-out) already captured the innermost
					// frame; keep it.
					panics[i] = p
					return
				}
				panics[i] = &Panic{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		return body(i)
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := call(i)
			if panics[i] != nil {
				panic(panics[i])
			}
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i], errs[i] = call(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WorkerCount resolves a Workers knob: values above zero are taken as
// given, zero (and below) means one worker per CPU.
func WorkerCount(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}
