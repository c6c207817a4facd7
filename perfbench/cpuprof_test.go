package main

import (
	"bytes"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"testing"
	"time"
)

// TestEveryInternalPackageHasALayer fails when a package is added under
// internal/ without a layer in the CPU fold.
func TestEveryInternalPackageHasALayer(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		l, ok := internalLayers[e.Name()]
		if !ok {
			t.Errorf("internal/%s has no layer in internalLayers", e.Name())
		} else if !known[l] {
			t.Errorf("internal/%s maps to %q, which is not a reported layer", e.Name(), l)
		}
		if got := layerOf(modulePath + "/internal/" + e.Name() + ".Func"); got != l {
			t.Errorf("layerOf(internal/%s) = %q, want %q", e.Name(), got, l)
		}
	}
	for name := range internalLayers {
		if _, err := os.Stat("../internal/" + name); err != nil {
			t.Errorf("internalLayers names internal/%s, which does not exist", name)
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"casino/internal/mem.(*Cache).Access":          "mem",
		"casino/internal/sim.RunCells.func1":           "driver",
		"casino/internal/stats.(*Hist).Add":            "accounting",
		"casino/internal/dse.(*Engine).runJob":         "dse",
		"casino/internal/nosuch.F":                     "unmapped:casino/internal/nosuch",
		"casino/tools/x.F":                             "unmapped:casino/tools/x",
		"main.main":                                    "driver",
		"casino/cmd/casino-server.main":                "driver",
		"net/http.(*conn).serve":                       "http",
		"encoding/json.Marshal":                        "http",
		"vendor/golang.org/x/net/http2/hpack.(*D).Len": "http",
		"runtime.mallocgc":                             "",
		"sort.Slice":                                   "",
		"casino/internal/stats.F[go.shape.*net/x.T]":   "accounting",
		"network/x.F":                                  "",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestFoldStacks(t *testing.T) {
	stacks := [][]string{
		{"casino/internal/mem.(*Cache).Access", "casino/internal/core.(*Core).Cycle"},
		{"runtime.mallocgc", "casino/internal/core.newEntry", "casino/internal/sim.Run"},
		{"runtime.gcBgMarkWorker"},
		{"sort.Slice", "casino/internal/dse.Frontier"},
		{"casino/internal/nosuch.F"},
	}
	ns := []int64{40, 30, 10, 15, 5}
	f := foldStacks(stacks, ns)
	want := map[string]int64{"mem": 40, "scheduler": 30, "runtime": 10, "dse": 15}
	for l, w := range want {
		if f.LayerNs[l] != w {
			t.Errorf("layer %s: %d ns, want %d", l, f.LayerNs[l], w)
		}
	}
	if f.TotalNs != 100 || f.Unmapped["casino/internal/nosuch"] != 5 {
		t.Errorf("total %d, unmapped %v", f.TotalNs, f.Unmapped)
	}
	var sum float64
	for _, s := range f.Shares() {
		sum += s
	}
	if math.Abs(sum-0.95) > 1e-12 {
		t.Errorf("shares sum to %v, want 0.95 (the unmapped 5%% stays out)", sum)
	}
}

// TestFoldProfile folds a real CPU profile of this process: every sample
// lands in a layer, so the shares sum to one.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	f, err := FoldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.TotalNs == 0 {
		t.Skip("profile caught no samples")
	}
	var sum float64
	for _, s := range f.Shares() {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 || len(f.Unmapped) != 0 {
		t.Errorf("shares sum to %v, unmapped %v", sum, f.Unmapped)
	}
	if f.LayerNs["driver"] == 0 {
		t.Errorf("the spinning test function (package main) is missing from the driver layer: %v", f.LayerNs)
	}
}

var sink []float64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		xs := make([]float64, 512)
		for i := range xs {
			xs[i] = math.Sin(float64(i))
		}
		sort.Float64s(xs)
		sink = xs
	}
}
