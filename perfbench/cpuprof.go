package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// internalLayers maps every package under internal/ to its layer. A test
// keeps it complete: a new package must be given a layer here.
var internalLayers = map[string]string{
	"workload": "workload", "trace": "workload", "isa": "workload",
	"frontend": "frontend", "bpred": "frontend",
	"core": "scheduler", "ino": "scheduler", "ooo": "scheduler", "slice": "scheduler",
	"specino": "scheduler", "regfile": "scheduler", "pipeline": "scheduler",
	"lsu":    "lsu",
	"mem":    "mem",
	"energy": "accounting", "stats": "accounting", "ptrace": "accounting",
	"sim": "driver", "eventq": "driver",
	"dse": "dse", "manifest": "dse",
	"telemetry": "http",
}

// stdHTTP are the standard-library packages (by path prefix) that serve
// HTTP, JSON and socket I/O; their self time is the http layer's.
var stdHTTP = []string{"net", "vendor/golang.org/x/net", "encoding/json", "mime", "bufio", "internal/poll", "syscall"}

const modulePath = "casino"

// layerOf returns the layer of a function's package, "" for a package that
// is transparent (the Go runtime and the rest of the standard library,
// whose time is charged to the nearest caller with a layer), or
// "unmapped:<pkg>" for a repository package missing from internalLayers.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "main" || pkg == modulePath || pkg == modulePath+"/perfbench" || strings.HasPrefix(pkg, modulePath+"/cmd/"):
		return "driver" // the commands and this benchmark, harnesses around the simulator
	case strings.HasPrefix(pkg, modulePath+"/internal/"):
		name := strings.SplitN(strings.TrimPrefix(pkg, modulePath+"/internal/"), "/", 2)[0]
		if l, ok := internalLayers[name]; ok {
			return l
		}
		return "unmapped:" + pkg
	case strings.HasPrefix(pkg, modulePath+"/"):
		return "unmapped:" + pkg
	}
	for _, p := range stdHTTP {
		if pkg == p || strings.HasPrefix(pkg, p+"/") {
			return "http"
		}
	}
	return ""
}

// packageOf returns the import path of a symbol such as
// "casino/internal/mem.(*Cache).Access" or "net/http.(*conn).serve".
// Type arguments ("F[go.shape.*pkg/x.T]") are not part of the path.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// Fold is a CPU profile's self time by layer. Each sample is charged to
// the innermost frame of its stack that has a layer; samples whose whole
// stack is runtime or library code (GC workers, the scheduler) are the
// runtime layer's.
type Fold struct {
	TotalNs  int64
	LayerNs  map[string]int64
	Unmapped map[string]int64 // repository packages without a layer
}

// Shares returns each layer's share of the profiled total.
func (f Fold) Shares() map[string]float64 {
	out := map[string]float64{}
	for _, l := range layers {
		if f.TotalNs > 0 {
			out[l] = float64(f.LayerNs[l]) / float64(f.TotalNs)
		}
	}
	return out
}

// foldStacks folds (stack, ns) samples; a stack lists function names from
// the leaf outwards.
func foldStacks(stacks [][]string, ns []int64) Fold {
	f := Fold{LayerNs: map[string]int64{}, Unmapped: map[string]int64{}}
	for i, st := range stacks {
		f.TotalNs += ns[i]
		layer := "runtime"
		for _, fn := range st {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		if pkg, ok := strings.CutPrefix(layer, "unmapped:"); ok {
			f.Unmapped[pkg] += ns[i]
			continue
		}
		f.LayerNs[layer] += ns[i]
	}
	return f
}

// FoldProfile folds a runtime/pprof CPU profile (gzipped profile.proto).
func FoldProfile(data []byte) (Fold, error) {
	stacks, ns, err := parseProfile(data)
	if err != nil {
		return Fold{}, err
	}
	return foldStacks(stacks, ns), nil
}

// parseProfile decodes the samples of a pprof profile into stacks of
// function names (leaf first) and their CPU nanoseconds. It reads only the
// fields it needs: samples, locations, functions and the string table.
func parseProfile(data []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	stacks := make([][]string, len(samples))
	ns := make([]int64, len(samples))
	for i, s := range samples {
		if len(s.vals) == 0 {
			return nil, nil, errors.New("profile: sample without values")
		}
		ns[i] = s.vals[len(s.vals)-1] // cpu nanoseconds follow the sample count
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				idx := fnName[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				stacks[i] = append(stacks[i], strs[idx])
			}
		}
	}
	return stacks, ns, nil
}

// appendPacked appends a repeated varint field that arrived either as one
// varint (v) or as a packed run (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks a protobuf message, calling fn with each field number
// and either its varint value (b == nil) or its length-delimited bytes.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var err error
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			err = fn(num, v, nil)
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
			err = fn(num, 0, b)
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// putCPU folds a CPU profile into the cpu.<layer> shares.
func (b *bench) putCPU(profile []byte) error {
	f, err := FoldProfile(profile)
	if err != nil {
		return err
	}
	var sum float64
	for l, s := range f.Shares() {
		b.put("cpu."+l, s)
		sum += s
	}
	b.note("cpu profile: %.2f s profiled, layer shares sum to %.4f of it", float64(f.TotalNs)/1e9, sum)
	var pkgs []string
	for p := range f.Unmapped {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	for _, p := range pkgs {
		b.flag("cpu profile: package %s has no layer (%.2f%% of samples); add it to internalLayers",
			p, 100*float64(f.Unmapped[p])/float64(f.TotalNs))
	}
	return nil
}
