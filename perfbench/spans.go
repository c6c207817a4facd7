package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the program.
// Spans of one matrix pass or one sweep share Run; Parent links a span to
// the span that caused it (0 for a root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps spans in memory until the run writes them out. Safe for
// concurrent use.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns the function that closes it; the closer
// returns the finished span.
func (r *Recorder) Begin(name, run string, parent int) (id int, end func() Span) {
	start := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	id = len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Run: run, Start: start, End: -1})
	r.mu.Unlock()
	return id, func() Span {
		stop := time.Since(r.epoch).Nanoseconds()
		r.mu.Lock()
		defer r.mu.Unlock()
		r.spans[id-1].End = stop
		return r.spans[id-1]
	}
}

// Spans returns a copy of every finished span.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes every finished span, with each span's self time, as
// JSON.
func (r *Recorder) WriteFile(path string) error {
	spans := r.Spans()
	self := SelfTimes(spans)
	type row struct {
		Span
		SelfNs int64 `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, self[s.ID].Nanoseconds()}
	}
	data, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap one another
// (cells running on parallel workers); the covered part is their union,
// clipped to the parent.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tail returns the highest percentile of xs that leaves at least ten
// samples above it, that percentile, and the sample count. With fewer than
// eleven samples no such percentile exists and it returns the maximum
// (percentile 100).
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 11 {
		return s[n-1], 100, n
	}
	// The k-th smallest (1-based) has n-k samples above it.
	k := n - 10
	return s[k-1], 100 * float64(k) / float64(n), n
}
