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

// profileLayers are the packages a CPU profile's samples are attributed to,
// by the package of each sample's leaf frame. Samples whose leaf lies in any
// other package (the harness glue, encoding/json, reflect, sort …) count as
// "other".
var profileLayers = []string{"sim", "cpu", "mem", "prefetch", "ppu", "baseline", "ir", "tracein", "system", "runtime"}

// selfShares parses a gzipped pprof CPU profile (as runtime/pprof writes it)
// and returns, for every name in profileLayers plus "other", the percentage
// of samples whose leaf frame belongs to that package.
func selfShares(prof []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		layer := "other"
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			// The first line of a location is the innermost inlined
			// function: the leaf frame proper.
			layer = layerOf(p.strings[p.funcNames[fns[0]]])
		}
		counts[layer] += s.values[0]
		total += s.values[0]
	}
	shares := map[string]float64{}
	for _, l := range append(profileLayers, "other") {
		if total > 0 {
			shares[l] = 100 * float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, nil
}

// layerOf maps a fully qualified Go function name to its profile layer.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "eventpf/internal/"):
		name := strings.TrimPrefix(pkg, "eventpf/internal/")
		for _, l := range profileLayers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// profile is the part of a decoded profile.proto message that leaf-frame
// attribution needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string-table index
	strings   []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6

	sampleLocField   = 1
	sampleValueField = 2

	locIDField   = 1
	locLineField = 4
	lineFuncID   = 1

	funcIDField   = 1
	funcNameField = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case profSampleField:
			var s profSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case sampleLocField:
					return appendUints(&s.locs, w, v, d)
				case sampleValueField:
					var vs []uint64
					if err := appendUints(&vs, w, v, d); err != nil {
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
		case profLocationField:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case locIDField:
					id = v
				case locLineField:
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == lineFuncID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunctionField:
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case funcIDField:
					id = v
				case funcNameField:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case profStringField:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, s := range p.funcNames {
		if s < 0 || s >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, s, len(p.strings))
		}
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and wire type, and its varint value or length-delimited bytes. Fixed-width
// fields are skipped; profile.proto uses none that attribution needs.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints decodes a repeated integer field in either encoding: one varint
// per field occurrence, or a packed length-delimited run of varints.
func appendUints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
