package main

import (
	"runtime"
	"sync"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on shared hosts whose speed drifts by tens of percent
// over minutes, mostly through contention in the shared cache and memory
// system. Every end-to-end time is therefore reported in reference
// seconds: each raw interval is multiplied by calRef / c, where c is the
// time a fixed calibration kernel took right next to that interval (after
// the matrix pass, or at the end of the service round, with the program
// idle). The kernel mixes what the simulator does — dependent loads over a
// table larger than the L2, set-associative tag compares and saturating
// predictor counters — so host slowdowns hit both alike. The kernel is part
// of the benchmark, not the program: no change to the program changes it.

// calRef is the kernel's time on the reference host (2-vCPU Intel Xeon,
// unloaded), so reference seconds read close to wall seconds there.
const calRef = 25 * time.Millisecond

const (
	calIters   = 150_000
	calTabBits = 21 // 8 MiB of uint32: past the L2, like a simulator's working set
)

var calTab = func() []uint32 {
	t := make([]uint32, 1<<calTabBits)
	r := newRNG(0xca11b)
	for i := range t {
		t[i] = uint32(r.intn(len(t)))
	}
	return t
}()

// calSink keeps the kernel's results alive.
var calSink []uint64

// calibrate runs the kernel once on GOMAXPROCS goroutines, as many as the
// matrix and the server use, and returns its wall time.
func calibrate() time.Duration {
	n := runtime.GOMAXPROCS(0)
	out := make([]uint64, n)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g] = calKernel(uint64(g))
		}(g)
	}
	wg.Wait()
	d := time.Since(start)
	calSink = out
	return d
}

func calKernel(seed uint64) uint64 {
	const mask = 1<<calTabBits - 1
	var (
		tags [4096][4]uint32
		ctr  [16384]uint8
		acc  uint64
	)
	p := uint32(seed * 7919)
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := 0; i < calIters; i++ {
		p = calTab[(p^uint32(i))&mask]
		for k := 0; k < 4; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			set, tag := uint32(x>>20)&4095, uint32(x>>40)&1023
			hit := false
			for w := 0; w < 4; w++ {
				if tags[set][w] == tag {
					hit = true
					break
				}
			}
			if !hit {
				tags[set][x&3] = tag
			}
			pc := uint32(x>>8) & 16383
			if ctr[pc] >= 2 {
				acc++
			}
			if (x>>33)&3 != 0 {
				if ctr[pc] < 3 {
					ctr[pc]++
				}
			} else if ctr[pc] > 0 {
				ctr[pc]--
			}
		}
		acc += uint64(p)
	}
	return acc
}

// refSeconds converts a raw interval measured next to a calibration run of
// length cal into reference seconds.
func refSeconds(raw, cal time.Duration) float64 {
	return raw.Seconds() * calRef.Seconds() / cal.Seconds()
}
