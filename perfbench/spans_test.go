package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		// Two overlapping children cover [10, 60]; a third covers [80, 90].
		{ID: 2, Parent: 1, Name: "sim.Run", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "sim.Run", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "sim.Run", Start: 80, End: 90},
		// A grandchild is its parent's child only.
		{ID: 5, Parent: 2, Name: "inner", Start: 15, End: 25},
		// A child that outlives its parent counts only inside it.
		{ID: 6, Name: "sweep", Start: 200, End: 300},
		{ID: 7, Parent: 6, Name: "http.submit", Start: 250, End: 350},
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 10, 5: 10, 6: 100 - 50, 7: 100}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{0, 10}}, 10},
		{0, 10, [][2]int64{{5, 7}, {2, 6}}, 5},
		{0, 10, [][2]int64{{-5, 3}, {8, 20}}, 5},
		{0, 10, [][2]int64{{1, 2}, {1, 2}, {3, 4}}, 2},
		{0, 10, [][2]int64{{12, 20}}, 0},
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestRecorderNests(t *testing.T) {
	r := NewRecorder()
	root, endRoot := r.Begin("sweep", "s1", 0)
	_, endChild := r.Begin("http.submit", "s1", root)
	child := endChild()
	endRoot()
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != root || child.Run != "s1" {
		t.Fatalf("spans %+v", spans)
	}
	if self := SelfTimes(spans); self[root] != spans[0].Dur()-child.Dur() {
		t.Errorf("root self %v, want %v", self[root], spans[0].Dur()-child.Dur())
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	v, pct, n := tail(xs)
	// The 90th value leaves exactly ten above it.
	if v != 90 || pct != 90 || n != 100 {
		t.Errorf("tail(1..100) = %v, p%v, n=%d; want 90, p90, 100", v, pct, n)
	}
	v, pct, n = tail(xs[:11])
	if v != 1 || math.Abs(pct-100.0/11) > 1e-9 || n != 11 {
		t.Errorf("tail(1..11) = %v, p%v, n=%d; want 1, p9.09, 11", v, pct, n)
	}
	if v, pct, _ := tail(xs[:5]); v != 5 || pct != 100 {
		t.Errorf("tail(1..5) = %v, p%v; want the maximum at p100", v, pct)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
