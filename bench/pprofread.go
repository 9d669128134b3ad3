package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stdlib-only reader for the subset of pprof's profile.proto the cost
// map needs: per sample, the function names on its stack (leaf first)
// and its CPU-time value. Field numbers follow
// github.com/google/pprof/proto/profile.proto.

// profSample is one stack sample: frames[0] is the leaf; inlined
// functions appear innermost first, as in the proto.
type profSample struct {
	frames []string
	value  int64
}

var errProtoTruncated = errors.New("profile.proto: truncated message")

// protoReader walks the fields of one protobuf message.
type protoReader struct{ buf []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.buf) == 0 {
			return 0, errProtoTruncated
		}
		b := r.buf[0]
		r.buf = r.buf[1:]
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile.proto: varint overflows 64 bits")
}

// next returns the next field: its number, wire type, and either the
// varint value or the length-delimited payload. Fixed-width fields are
// skipped over (the profile schema uses none the reader needs).
func (r *protoReader) next() (field int, wire int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		err = r.skip(8)
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.buf)) {
				return 0, 0, 0, nil, errProtoTruncated
			}
			payload, r.buf = r.buf[:n], r.buf[n:]
		}
	case 5:
		err = r.skip(4)
	default:
		err = fmt.Errorf("profile.proto: unsupported wire type %d", wire)
	}
	return field, wire, v, payload, err
}

func (r *protoReader) skip(n int) error {
	if n > len(r.buf) {
		return errProtoTruncated
	}
	r.buf = r.buf[n:]
	return nil
}

// repeatedVarints appends a repeated integer field's values, which
// arrive packed (wire 2) or one per key (wire 0).
func repeatedVarints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	pr := protoReader{payload}
	for len(pr.buf) > 0 {
		x, err := pr.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a (possibly gzip-compressed) pprof profile and
// returns its samples with resolved function names. valueIndex selects
// which of a sample's values to keep; CPU profiles carry
// [samples/count, cpu/nanoseconds], so 1 is CPU time.
func parseProfile(data []byte, valueIndex int) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}

	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		raw       []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string-table index
		strs      []string
	)
	r := protoReader{data}
	for len(r.buf) > 0 {
		field, _, _, payload, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s rawSample
			var values []uint64
			sr := protoReader{payload}
			for len(sr.buf) > 0 {
				f, w, v, p, err := sr.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = repeatedVarints(s.locs, w, v, p); err != nil {
						return nil, err
					}
				case 2:
					if values, err = repeatedVarints(values, w, v, p); err != nil {
						return nil, err
					}
				}
			}
			if valueIndex >= len(values) {
				return nil, fmt.Errorf("profile: sample has %d values, want index %d", len(values), valueIndex)
			}
			s.value = int64(values[valueIndex])
			raw = append(raw, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			lr := protoReader{payload}
			for len(lr.buf) > 0 {
				f, _, v, p, err := lr.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					nr := protoReader{p}
					for len(nr.buf) > 0 {
						lf, _, lv, _, err := nr.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // Function
			var id, name uint64
			fr := protoReader{payload}
			for len(fr.buf) > 0 {
				f, _, v, _, err := fr.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}

	out := make([]profSample, 0, len(raw))
	for _, s := range raw {
		ps := profSample{value: s.value}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				ps.frames = append(ps.frames, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// Cost-map buckets. The named layers are the packages a campaign spends
// its time in; every other h3cdn package (har, webgen, seqrand, trace,
// …) and the benchmark's own frames fall into "other".
var cpuLayers = []string{
	"simnet", "tcpsim", "quicsim", "tlssim", "httpsim", "cdn",
	"browser", "core", "sketch", "traffic", "bufpool",
}

const (
	internalPrefix   = "h3cdn/internal/"
	bucketOther      = "other"
	bucketRuntimeGC  = "runtime.gc"
	bucketRuntimeRes = "runtime.other"
)

// sampleBucket attributes one stack to a cost-map bucket: the innermost
// frame inside h3cdn/internal/<pkg> names the layer, so time spent in
// the allocator or in a stdlib helper is charged to the layer that
// called it. Stacks with no such frame are the runtime's own work:
// background GC, or everything else (scheduler, timers, idle).
func sampleBucket(frames []string) string {
	for _, fn := range frames {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return bucketOther
	}
	gc, own := false, false
	for _, fn := range frames {
		switch {
		case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.(*gcWork)"):
			gc = true
		case strings.HasPrefix(fn, "main."):
			own = true
		}
	}
	switch {
	case gc:
		return bucketRuntimeGC
	case own:
		return bucketOther
	default:
		return bucketRuntimeRes
	}
}

// cpuShares partitions the profile's CPU time over the cost-map buckets.
// Every bucket is present in the result (zero when it drew no samples),
// and the shares sum to 1.
func cpuShares(samples []profSample) (map[string]float64, error) {
	var total int64
	byBucket := make(map[string]int64)
	for _, s := range samples {
		byBucket[sampleBucket(s.frames)] += s.value
		total += s.value
	}
	if total <= 0 {
		return nil, errors.New("profile: no CPU samples")
	}
	shares := make(map[string]float64, len(cpuLayers)+3)
	for _, b := range append(append([]string{}, cpuLayers...), bucketOther, bucketRuntimeGC, bucketRuntimeRes) {
		shares[b] = float64(byBucket[b]) / float64(total)
	}
	return shares, nil
}
