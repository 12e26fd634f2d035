package main

// A minimal reader for the gzipped profile.proto files runtime/pprof
// writes: just the sample values, the location stacks (with inlined
// frames) and the function names and files they point at. The module has
// no third-party dependencies, so the fields are decoded by hand.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// frame is one function activation; inlined calls expand a location into
// several frames.
type frame struct {
	fn, file string
}

// sample is one profile sample: its stack, leaf first, and its values in
// the profile's sample-type order.
type sample struct {
	stack  []frame
	values []int64
}

// profile is a decoded pprof profile.
type profile struct {
	sampleTypes []string
	samples     []sample
}

// valueIndex returns the index of the named sample type (-1 if absent).
func (p *profile) valueIndex(typ string) int {
	for i, t := range p.sampleTypes {
		if t == typ {
			return i
		}
	}
	return -1
}

// pbReader walks one protobuf message.
type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) varint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x
		}
	}
	r.err = errors.New("varint overflow")
	return 0
}

// next reads one field: its number, wire type, varint value (wire type 0)
// or payload (wire type 2). It returns false at the end or on error.
func (r *pbReader) next() (field int, wire int, v uint64, payload []byte, ok bool) {
	if len(r.b) == 0 || r.err != nil {
		return 0, 0, 0, nil, false
	}
	tag := r.varint()
	field, wire = int(tag>>3), int(tag&7)
	switch wire {
	case 0:
		v = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		r.b = r.b[8:]
	case 2:
		n := r.varint()
		if uint64(len(r.b)) < n {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		payload, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		r.b = r.b[4:]
	default:
		r.err = fmt.Errorf("unsupported wire type %d", wire)
		return 0, 0, 0, nil, false
	}
	return field, wire, v, payload, r.err == nil
}

// uint64s appends a repeated integer field, packed (wire type 2) or not.
func uint64s(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	pr := pbReader{b: payload}
	for len(pr.b) > 0 && pr.err == nil {
		dst = append(dst, pr.varint())
	}
	return dst, pr.err
}

type pbLine struct{ function uint64 }

type pbFunction struct{ name, file int64 }

// parseProfile decodes a gzipped profile.proto.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs      []string
		typeIdx   []int64
		rawSamps  []rawSample
		locations = map[uint64][]pbLine{}
		functions = map[uint64]pbFunction{}
	)
	r := pbReader{b: raw}
	for {
		field, _, _, payload, ok := r.next()
		if !ok {
			break
		}
		switch field {
		case 1: // sample_type: ValueType{type=1, unit=2}
			m := pbReader{b: payload}
			for f, _, v, _, ok := m.next(); ok; f, _, v, _, ok = m.next() {
				if f == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
			}
			if m.err != nil {
				return nil, fmt.Errorf("profile sample_type: %w", m.err)
			}
		case 2: // sample: location_id=1, value=2
			var s rawSample
			m := pbReader{b: payload}
			for f, w, v, p, ok := m.next(); ok; f, w, v, p, ok = m.next() {
				var err error
				switch f {
				case 1:
					s.locs, err = uint64s(s.locs, w, v, p)
				case 2:
					s.values, err = uint64s(s.values, w, v, p)
				}
				if err != nil {
					return nil, fmt.Errorf("profile sample: %w", err)
				}
			}
			if m.err != nil {
				return nil, fmt.Errorf("profile sample: %w", m.err)
			}
			rawSamps = append(rawSamps, s)
		case 4: // location: id=1, line=4{function_id=1}
			var id uint64
			var lines []pbLine
			m := pbReader{b: payload}
			for f, _, v, p, ok := m.next(); ok; f, _, v, p, ok = m.next() {
				switch f {
				case 1:
					id = v
				case 4:
					var ln pbLine
					lm := pbReader{b: p}
					for lf, _, lv, _, ok := lm.next(); ok; lf, _, lv, _, ok = lm.next() {
						if lf == 1 {
							ln.function = lv
						}
					}
					if lm.err != nil {
						return nil, fmt.Errorf("profile line: %w", lm.err)
					}
					lines = append(lines, ln)
				}
			}
			if m.err != nil {
				return nil, fmt.Errorf("profile location: %w", m.err)
			}
			locations[id] = lines
		case 5: // function: id=1, name=2, filename=4
			var id uint64
			var fn pbFunction
			m := pbReader{b: payload}
			for f, _, v, _, ok := m.next(); ok; f, _, v, _, ok = m.next() {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
			}
			if m.err != nil {
				return nil, fmt.Errorf("profile function: %w", m.err)
			}
			functions[id] = fn
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("profile: %w", r.err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for _, rs := range rawSamps {
		s := sample{values: make([]int64, len(rs.values))}
		for i, v := range rs.values {
			s.values[i] = int64(v)
		}
		for _, loc := range rs.locs {
			// A location's lines run from the innermost inlined call out.
			for _, ln := range locations[loc] {
				fn := functions[ln.function]
				s.stack = append(s.stack, frame{fn: str(fn.name), file: str(fn.file)})
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}
