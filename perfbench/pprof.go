package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the profile attribution buckets, named after the modules.
// Each sample goes to the innermost frame under hpcsched/internal/<pkg>, so
// runtime work a layer causes (a goroutine park under proc, a map grow
// under sched) counts against that layer; samples with no such frame are
// runtime.
var layers = []string{"experiments", "sim", "sched", "proc", "mpi", "trace",
	"cluster", "batch", "faults", "other", "runtime"}

// layerOf maps an internal package to its layer.
var layerOf = map[string]string{
	"experiments": "experiments",
	"sim":         "sim",
	"sched":       "sched", "core": "sched", "power5": "sched", "rbtree": "sched",
	"proc":    "proc",
	"mpi":     "mpi",
	"trace":   "trace",
	"cluster": "cluster",
	"batch":   "batch",
	"faults":  "faults",
}

const internalPrefix = "hpcsched/internal/"

// layerSamples decodes a runtime/pprof CPU profile and adds each sample's
// count to its layer in counts.
func layerSamples(profile []byte, counts map[string]int64) error {
	p, err := decodeProfile(profile)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		layer := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				name := p.strings[p.funcNames[fn]]
				if !strings.HasPrefix(name, internalPrefix) {
					continue
				}
				pkg := name[len(internalPrefix):]
				if i := strings.IndexAny(pkg, "./"); i >= 0 {
					pkg = pkg[:i]
				}
				layer = layerOf[pkg]
				if layer == "" {
					layer = "other"
				}
				break frames
			}
		}
		counts[layer] += s.count
	}
	return nil
}

// sharesOf turns layer sample counts into percentages of their total.
func sharesOf(counts map[string]int64) (map[string]float64, int64) {
	var total int64
	for _, n := range counts {
		total += n
	}
	shares := map[string]float64{}
	for _, l := range layers {
		if total > 0 {
			shares[l] = 100 * float64(counts[l]) / float64(total)
		}
	}
	return shares, total
}

// profile holds the parts of a pprof profile.proto that attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

// decodeProfile parses the gzip-compressed protocol buffer runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto): samples (field 2),
// locations (4), functions (5) and the string table (6).
func decodeProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			var values []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					values = appendVarints(values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcNames[id] = name
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: string index %d out of range", idx)
		}
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protocol buffer")

// eachField walks one protocol buffer message. fn gets the field number and
// either the varint value (wire type 0) or the payload (wire type 2);
// fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, payload); err != nil {
				return err
			}
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated scalar field: one unpacked value, or a
// packed run of varints.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
