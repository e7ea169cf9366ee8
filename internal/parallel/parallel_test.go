package parallel

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(-3) = %d", got)
	}
	if got := Resolve(7); got != 7 {
		t.Errorf("Resolve(7) = %d", got)
	}
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	items := make([]int, 257)
	for i := range items {
		items[i] = i * 3
	}
	want := Map(1, items, func(i, v int) int { return v*v + i })
	for _, w := range []int{2, 3, 8, 64, 1000} {
		got := Map(w, items, func(i, v int) int { return v*v + i })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results differ from sequential", w)
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if got := Map(4, nil, func(i, v int) int { return v }); len(got) != 0 {
		t.Errorf("empty map returned %d results", len(got))
	}
	got := Map(8, []string{"x"}, func(i int, s string) string { return s + "!" })
	if len(got) != 1 || got[0] != "x!" {
		t.Errorf("single-item map = %v", got)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	var inflight, peak atomic.Int64
	Map(3, make([]struct{}, 100), func(int, struct{}) struct{} {
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		inflight.Add(-1)
		return struct{}{}
	})
	if p := peak.Load(); p > 3 {
		t.Errorf("observed %d concurrent workers, want ≤ 3", p)
	}
}

func TestMapVisitsEachIndexOnce(t *testing.T) {
	seen := make([]atomic.Int64, 50)
	Map(8, make([]struct{}, 50), func(i int, _ struct{}) struct{} {
		seen[i].Add(1)
		return struct{}{}
	})
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Errorf("index %d visited %d times", i, n)
		}
	}
}

func TestFirstErrorLowestIndexWins(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	var fe FirstError
	if fe.Err() != nil {
		t.Fatal("fresh FirstError not nil")
	}
	fe.Report(5, errB)
	fe.Report(7, errors.New("later"))
	fe.Report(2, errA)
	fe.Report(3, nil)
	if got := fe.Err(); got != errA {
		t.Errorf("Err() = %v, want lowest-index error %v", got, errA)
	}
}
