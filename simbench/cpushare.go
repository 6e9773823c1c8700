package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerOf maps each Go package of the module to the benchmark layer whose
// cpu_share its flat CPU samples count toward. Samples in any other package
// (the Go runtime and standard library, this benchmark, the sgprs facade)
// count toward "go".
var layerOf = map[string]string{
	"sgprs/internal/des":      "des",
	"sgprs/internal/gpu":      "gpu",
	"sgprs/internal/speedup":  "gpu",
	"sgprs/internal/sched":    "sched",
	"sgprs/internal/core":     "sched",
	"sgprs/internal/naive":    "sched",
	"sgprs/internal/workload": "workload",
	"sgprs/internal/rt":       "workload",
	"sgprs/internal/metrics":  "metrics",
	"sgprs/internal/stats":    "metrics",
	"sgprs/internal/sim":      "sim",
	"sgprs/internal/cluster":  "cluster",
	"sgprs/internal/fault":    "fault",
	"sgprs/internal/memo":     "offline",
	"sgprs/internal/profile":  "offline",
	"sgprs/internal/dnn":      "offline",
	"sgprs/internal/runner":   "runner",
	"sgprs/internal/exp":      "runner",
}

// layers lists every cpu_share layer in report order.
var layers = []string{"des", "gpu", "sched", "workload", "metrics", "sim", "cluster", "fault", "offline", "runner", "go"}

// funcPackage extracts the package path from a symbol name such as
// "sgprs/internal/gpu.(*Device).fullRecompute" or "runtime.mallocgc".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiation arguments may hold paths
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// sessionRun is the symbol of one simulation run; runner overhead is runner
// CPU spent outside it.
const sessionRun = "sgprs/internal/sim.(*Session).Run"

// foldProfile reads a gzipped pprof CPU profile. It folds the flat samples
// (CPU time of the innermost frame, inlined callees included) by layer, into
// shares that sum to 1, and returns the runner's overhead: the share of the
// CPU time under a runner or exp frame that is not under sessionRun (0 when
// no sample has a runner frame).
func foldProfile(gz []byte) (shares map[string]float64, runnerOverhead float64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	byLayer := map[string]float64{}
	var total, underRunner, outsideRuns float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		layer := "go"
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			if l, ok := layerOf[funcPackage(p.name(fns[0]))]; ok {
				layer = l
			}
		}
		byLayer[layer] += v
		total += v

		var runner, run bool
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				name := p.name(fn)
				runner = runner || layerOf[funcPackage(name)] == "runner"
				run = run || name == sessionRun
			}
		}
		if runner {
			underRunner += v
			if !run {
				outsideRuns += v
			}
		}
	}
	if total == 0 {
		return nil, 0, errors.New("cpu profile: no samples")
	}
	shares = make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = byLayer[l] / total
	}
	if underRunner > 0 {
		runnerOverhead = outsideRuns / underRunner
	}
	return shares, runnerOverhead, nil
}

// profileData is the part of a pprof profile the fold needs.
type profileData struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location ID → function IDs, innermost first
	funcName map[uint64]int64    // function ID → string-table index
	strings  []string
}

func (p *profileData) name(fn uint64) string { return p.strings[p.funcName[fn]] }

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile reads the protobuf encoding of perftools.profiles.Profile
// (github.com/google/pprof/proto/profile.proto), keeping samples,
// locations, functions, and the string table.
func decodeProfile(b []byte) (*profileData, error) {
	p := &profileData{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, m)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, v, m); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(p.strings) == 0 {
		return nil, errors.New("empty string table")
	}
	for _, n := range p.funcName {
		if n < 0 || int(n) >= len(p.strings) {
			return nil, fmt.Errorf("function name index %d outside string table", n)
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field number
// and either its varint value (wire type 0) or its bytes (wire type 2).
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field in either encoding: one
// varint per field occurrence, or a packed run in one length-delimited
// field.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
