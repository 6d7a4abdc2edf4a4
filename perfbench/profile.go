package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// cpuSample is one CPU profile sample: its stack as function names, leaf
// first (inlined frames included), and the CPU time it stands for.
type cpuSample struct {
	frames []string
	nanos  int64
}

// parseCPUProfile decodes the gzipped protobuf that runtime/pprof writes,
// reading only the fields needed to name each sample's frames. The format
// is the pprof profile.proto: Profile{sample=2, location=4, function=5,
// string_table=6}, Sample{location_id=1, value=2}, Location{id=1, line=4},
// Line{function_id=1}, Function{id=1, name=2}.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	if len(gz) == 0 {
		return nil, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendUints(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
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
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
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
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("cpu profile: sample without cpu time")
		}
		cs := cpuSample{nanos: s.values[1]}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					cs.frames = append(cs.frames, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(num, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field that may be packed (wire
// type 2) or not (one varint per field).
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
