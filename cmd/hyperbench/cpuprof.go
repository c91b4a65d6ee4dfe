package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file attributes CPU samples of a runtime/pprof profile to
// layers. It decodes the four profile.proto messages it needs with the
// standard library only; the module takes no dependency for it.

// cpuLayers are the rows of the attribution: the module's packages,
// plus runtime for stacks with no module frame (GC workers, scheduler,
// this program's own bookkeeping) and other for module packages not
// listed. Every sample lands in exactly one row, so the shares sum to
// 100 % by construction.
var cpuLayers = []string{
	"sim", "netsim", "transport", "rpc", "wire", "fabric", "ehdl", "ebpf",
	"nvme", "nvmeof", "pcie", "seg",
	"storage.bptree", "storage.lsm", "storage.kvssd", "storage.corfu", "storage.colfmt",
	"apps", "core", "cluster", "rack", "tenant", "telemetry", "fault", "baseline", "bench",
	"runtime", "other",
}

const modulePrefix = "hyperion/internal/"

// layerOf maps a function name to its layer. ok is false for functions
// outside the module's internal tree.
func layerOf(fn string) (layer string, ok bool) {
	if !strings.HasPrefix(fn, modulePrefix) {
		return "", false
	}
	rest := fn[len(modulePrefix):]
	if i := strings.IndexByte(rest, '['); i >= 0 { // generic instantiation: type args may hold slashes
		rest = rest[:i]
	}
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return "other", true
	}
	pkg := rest[:slash+1+dot]
	top, sub, _ := strings.Cut(pkg, "/")
	name := top
	if top == "storage" {
		name = "storage." + sub
	}
	for _, l := range cpuLayers {
		if l == name && l != "runtime" && l != "other" {
			return l, true
		}
	}
	return "other", true
}

// attribute returns each layer's share of the profile's samples, in
// percent. A sample goes to the innermost module frame on its stack.
func attribute(profile []byte) (map[string]float64, int64, error) {
	stacks, err := decodeProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	count := map[string]int64{}
	var total int64
	for _, st := range stacks {
		layer := "runtime"
		for _, fn := range st.funcs {
			if l, ok := layerOf(fn); ok {
				layer = l
				break
			}
		}
		count[layer] += st.n
		total += st.n
	}
	share := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			share[l] = 100 * float64(count[l]) / float64(total)
		} else {
			share[l] = 0
		}
	}
	return share, total, nil
}

// stack is one profile sample: its count and its function names,
// innermost first (inlined callees before the function they were
// inlined into).
type stack struct {
	n     int64
	funcs []string
}

// pb walks one protobuf message.
type pb struct{ b []byte }

var errProto = errors.New("malformed profile")

func (p *pb) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, and either its varint value
// or its length-delimited bytes. Fixed-width fields are skipped.
func (p *pb) next() (num int, val uint64, data []byte, err error) {
	for {
		key, err := p.varint()
		if err != nil {
			return 0, 0, nil, err
		}
		num = int(key >> 3)
		switch key & 7 {
		case 0:
			val, err = p.varint()
			return num, val, nil, err
		case 2:
			n, err := p.varint()
			if err != nil || n > uint64(len(p.b)) {
				return 0, 0, nil, errProto
			}
			data, p.b = p.b[:n], p.b[n:]
			return num, 0, data, nil
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(p.b) < w {
				return 0, 0, nil, errProto
			}
			p.b = p.b[w:]
		default:
			return 0, 0, nil, errProto
		}
	}
}

// repeated appends a repeated varint field that may arrive packed
// (data) or as a single value.
func repeated(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	p := pb{data}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64
		n    int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	top := pb{raw}
	for len(top.b) > 0 {
		num, _, data, err := top.next()
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		msg := pb{data}
		switch num {
		case 2: // Sample: location_id = 1, value = 2
			var s sample
			var vals []uint64
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, fmt.Errorf("cpu profile sample: %w", err)
				}
				switch f {
				case 1:
					s.locs, err = repeated(s.locs, v, d)
				case 2:
					vals, err = repeated(vals, v, d)
				}
				if err != nil {
					return nil, fmt.Errorf("cpu profile sample: %w", err)
				}
			}
			if len(vals) > 0 {
				s.n = int64(vals[0]) // sample_type[0] is samples/count
			}
			samples = append(samples, s)
		case 4: // Location: id = 1, line = 4 { function_id = 1 }
			var id uint64
			var fns []uint64
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, fmt.Errorf("cpu profile location: %w", err)
				}
				switch f {
				case 1:
					id = v
				case 4:
					line := pb{d}
					for len(line.b) > 0 {
						lf, lv, _, err := line.next()
						if err != nil {
							return nil, fmt.Errorf("cpu profile line: %w", err)
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			for len(msg.b) > 0 {
				f, v, _, err := msg.next()
				if err != nil {
					return nil, fmt.Errorf("cpu profile function: %w", err)
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{n: s.n}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}
