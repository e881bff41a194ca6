package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// Stage attribution. The traced run cannot time the stages inside a
// LiPS tick from outside the program, so it profiles the run and charges
// every CPU or allocation sample to the innermost function of its stack
// that appears in layerEntries. The list is the fixed set of layer entry
// points documented in README.md; a sample under none of them (runtime
// background work, the benchmark's own code) goes to stageOther.
var layerEntries = map[string]string{
	"lips/internal/sim.(*Sim).Run":              stageSim,
	"lips/internal/sim.(*Sim).StepUntil":        stageSim,
	"lips/internal/sched.(*LiPS).tick":          stagePlanOther,
	"lips/internal/sched.(*LiPS).buildInstance": stageInstance,
	"lips/internal/core.BuildOnlineModel":       stageModel,
	"lips/internal/lp.(*Problem).Solve":         stageLP,
	"lips/internal/lp.(*simplexState).phase1":   stagePhase1,
	"lips/internal/core.(*Plan).Round":          stageRound,
	"lips/internal/sched.(*LiPS).apply":         stageApply,
	"lips/internal/sched.(*Delay).OnSlotFree":   stageDelay,
}

// Stage names; the per-layer metrics read them back.
const (
	stageSim       = "sim"
	stagePlanOther = "sched.plan_other"
	stageInstance  = "core.instance"
	stageModel     = "core.model"
	stageLP        = "lp.solve"
	stagePhase1    = "lp.phase1"
	stageRound     = "core.round"
	stageApply     = "sched.apply"
	stageDelay     = "sched.delay"
	stageOther     = "other"
)

// profSample is one decoded profile sample: its values and its stack of
// function names, innermost first (inlined frames expanded).
type profSample struct {
	Values []int64
	Stack  []string
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	SampleTypes []string // "type/unit" per value column
	Samples     []profSample
}

// valueIndex returns the column of the named sample type, e.g.
// "cpu/nanoseconds" or "alloc_space/bytes".
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.SampleTypes {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q column (have %v)", typ, p.SampleTypes)
}

// attribute sums the column of sample type typ by stage: each sample
// goes to the innermost frame of its stack named in entries.
func (p *profile) attribute(typ string, entries map[string]string) (map[string]int64, error) {
	col, err := p.valueIndex(typ)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range p.Samples {
		stage := stageOther
		for _, fn := range s.Stack {
			if st, ok := entries[fn]; ok {
				stage = st
				break
			}
		}
		out[stage] += s.Values[col]
	}
	return out, nil
}

// parseProfile decodes a gzip-compressed pprof protobuf as written by
// runtime/pprof. Only sample types, samples, locations, functions and
// the string table are read.
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
		values []int64
	}
	var (
		typeIdx  [][2]int64 // (type, unit) string indexes
		samples  []rawSample
		locFuncs = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funcName = make(map[uint64]int64)    // function id -> string index
		strs     []string
	)
	err = walkFields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var tu [2]int64
			if err := walkFields(data, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					tu[n-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			typeIdx = append(typeIdx, tu)
		case 2: // sample
			var s rawSample
			if err := walkFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, d)
				case 2:
					var u []uint64
					if err := appendPacked(&u, v, d); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := walkFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return walkFields(d, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := walkFields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, tu := range typeIdx {
		p.SampleTypes = append(p.SampleTypes, str(tu[0])+"/"+str(tu[1]))
	}
	for _, rs := range samples {
		if len(rs.values) != len(p.SampleTypes) {
			return nil, fmt.Errorf("profile: sample has %d values for %d types", len(rs.values), len(p.SampleTypes))
		}
		s := profSample{Values: rs.values}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.Stack = append(s.Stack, str(funcName[fn]))
			}
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// walkFields calls fn for each top-level field of a protobuf message:
// varint fields pass their value, length-delimited fields their bytes.
// Fixed-width fields, which profiles do not use, are skipped.
func walkFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which an encoder may
// write either packed (data set) or as one value per field (v).
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// uvarint decodes a protobuf varint; n <= 0 means malformed.
func uvarint(b []byte) (v uint64, n int) {
	var shift uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, i + 1
		}
		shift += 7
	}
	return 0, 0
}
