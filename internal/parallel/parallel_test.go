package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	const n = 1000
	var hits [n]atomic.Int32
	For(n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d hit %d times", i, got)
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, func(int) { called = true })
	For(-5, func(int) { called = true })
	if called {
		t.Error("For called fn for empty range")
	}
}

func TestForWorkersSingle(t *testing.T) {
	order := make([]int, 0, 10)
	ForWorkers(10, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("single-worker For not sequential: %v", order)
		}
	}
}

func TestMap(t *testing.T) {
	out := Map(100, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("Map[%d] = %d", i, v)
		}
	}
}

func TestReduceSum(t *testing.T) {
	got := Reduce(1000, 0, func(i int) int { return i }, func(a, b int) int { return a + b })
	if want := 999 * 1000 / 2; got != want {
		t.Fatalf("Reduce = %d, want %d", got, want)
	}
}

func TestReduceEmpty(t *testing.T) {
	if got := Reduce(0, 42, func(int) int { return 0 }, func(a, b int) int { return a + b }); got != 42 {
		t.Fatalf("empty Reduce = %d, want zero value 42", got)
	}
}

func TestFirstErrReturnsSmallestIndex(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := FirstErr(100, func(i int) error {
		switch i {
		case 30:
			return errB
		case 10:
			return errA
		}
		return nil
	})
	if err != errA {
		t.Fatalf("FirstErr = %v, want error at smallest failing index", err)
	}
	if err := FirstErr(10, func(int) error { return nil }); err != nil {
		t.Fatalf("FirstErr on success = %v", err)
	}
}

// TestReduceFloatDeterminism: float folds must reproduce bit-for-bit
// across repeated runs — the sweep engine's byte-identical results
// contract depends on it. The values are chosen so that any change in
// summation order flips low-order bits.
func TestReduceFloatDeterminism(t *testing.T) {
	n := 1003
	fn := func(i int) float64 { return 1.0 / float64(i+1) }
	add := func(a, b float64) float64 { return a + b }
	want := Reduce(n, 0.0, fn, add)
	for run := 0; run < 50; run++ {
		if got := Reduce(n, 0.0, fn, add); got != want {
			t.Fatalf("run %d: Reduce = %x, want %x (non-deterministic fold order)",
				run, got, want)
		}
	}
}

// recoverFrom runs f and returns the value it panicked with, or nil.
func recoverFrom(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestWorkerPanicReachesCaller: a panic inside a worker goroutine must be
// re-raised on the calling goroutine, where a recover can catch it,
// instead of killing the process.
func TestWorkerPanicReachesCaller(t *testing.T) {
	if r := recoverFrom(func() {
		ForWorkers(100, 4, func(i int) {
			if i == 37 {
				panic("for worker 37")
			}
		})
	}); r != "for worker 37" {
		t.Fatalf("ForWorkers panic = %v, want the worker's value", r)
	}
	if r := recoverFrom(func() { ForWorkers(10, 2, func(int) {}) }); r != nil {
		t.Fatalf("ForWorkers without a panic raised %v", r)
	}
}
