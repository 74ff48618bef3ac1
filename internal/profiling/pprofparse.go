package profiling

// A minimal decoder for the pprof profile.proto wire format — just enough
// of the protobuf encoding to read the profiles the Go runtime writes
// (CPU, mutex, block), resolve stacks to function names, and carry sample
// labels. Hand-rolled because the repo takes no dependencies: the profile
// format is a stable protobuf (github.com/google/pprof/proto/profile.proto)
// and the runtime always writes it gzip-compressed.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// ValueType is one sample dimension: ("cpu", "nanoseconds"),
// ("contentions", "count"), ...
type ValueType struct {
	Type string
	Unit string
}

// Sample is one resolved profile sample: a leaf-first stack of function
// names, one value per Profile.SampleTypes entry, and the pprof labels
// attached by pprof.Do (string labels; numeric labels are formatted).
type Sample struct {
	Stack  []string
	Values []int64
	Labels map[string]string
}

// Profile is a resolved pprof document.
type Profile struct {
	SampleTypes   []ValueType
	PeriodType    ValueType
	Period        int64
	DurationNanos int64
	Samples       []*Sample
}

// ValueIndex finds the sample dimension with the given unit (the
// attribution table wants "nanoseconds"); -1 when absent.
func (p *Profile) ValueIndex(unit string) int {
	for i, st := range p.SampleTypes {
		if st.Unit == unit {
			return i
		}
	}
	return -1
}

// --- protobuf wire primitives -----------------------------------------

func readVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, fmt.Errorf("profiling: truncated varint")
}

// zigzag is not used by profile.proto (all ints are plain varints), so
// int64 fields reinterpret the varint bits directly.
func asInt64(v uint64) int64 { return int64(v) }

// field is one decoded protobuf field: varint value for wire type 0/1/5,
// payload bytes for wire type 2.
type field struct {
	num     int
	varint  uint64
	payload []byte
}

// walkFields iterates a protobuf message's fields.
func walkFields(b []byte, fn func(f field) error) error {
	for len(b) > 0 {
		tag, n, err := readVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		f := field{num: int(tag >> 3)}
		switch tag & 7 {
		case 0: // varint
			f.varint, n, err = readVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return fmt.Errorf("profiling: truncated fixed64")
			}
			for i := 7; i >= 0; i-- {
				f.varint = f.varint<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2: // length-delimited
			l, n, err := readVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return fmt.Errorf("profiling: truncated field payload")
			}
			f.payload = b[:l]
			b = b[l:]
		case 5: // fixed32
			if len(b) < 4 {
				return fmt.Errorf("profiling: truncated fixed32")
			}
			for i := 3; i >= 0; i-- {
				f.varint = f.varint<<8 | uint64(b[i])
			}
			b = b[4:]
		default:
			return fmt.Errorf("profiling: unsupported wire type %d", tag&7)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// packedOrSingle appends a repeated varint field's values: wire type 2
// carries a packed run, wire type 0 a single value.
func packedOrSingle(f field, out []uint64) ([]uint64, error) {
	if f.payload == nil {
		return append(out, f.varint), nil
	}
	b := f.payload
	for len(b) > 0 {
		v, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// --- profile.proto field numbers ---------------------------------------

// Raw intermediate structures, resolved against the string table after
// the single decoding pass.
type rawSample struct {
	locIDs []uint64
	values []int64
	labels map[string]string // resolved inline (needs strtab, patched later)
	labs   []rawLabel
}

type rawLabel struct {
	key, str int64 // string table indexes
	num      int64
	hasNum   bool
}

type rawLocation struct {
	id      uint64
	address uint64
	funcIDs []uint64 // innermost first (Line[0] is the leaf inline frame)
}

// ParseProfile decodes a (possibly gzipped) pprof profile document.
func ParseProfile(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
		if err := zr.Close(); err != nil {
			return nil, err
		}
	}

	var (
		strtab    []string
		valueType []struct{ typ, unit int64 }
		period    struct{ typ, unit int64 }
		prof      = &Profile{}
		samples   []rawSample
		locs      = map[uint64]rawLocation{}
		funcs     = map[uint64]int64{} // id -> name strtab index
	)

	parseValueType := func(b []byte) (vt struct{ typ, unit int64 }, err error) {
		err = walkFields(b, func(f field) error {
			switch f.num {
			case 1:
				vt.typ = asInt64(f.varint)
			case 2:
				vt.unit = asInt64(f.varint)
			}
			return nil
		})
		return vt, err
	}

	err := walkFields(data, func(f field) error {
		switch f.num {
		case 1: // sample_type
			vt, err := parseValueType(f.payload)
			if err != nil {
				return err
			}
			valueType = append(valueType, vt)
		case 2: // sample
			var rs rawSample
			err := walkFields(f.payload, func(sf field) error {
				var err error
				switch sf.num {
				case 1: // location_id
					rs.locIDs, err = packedOrSingle(sf, rs.locIDs)
				case 2: // value
					var vs []uint64
					vs, err = packedOrSingle(sf, nil)
					for _, v := range vs {
						rs.values = append(rs.values, asInt64(v))
					}
				case 3: // label
					var rl rawLabel
					err = walkFields(sf.payload, func(lf field) error {
						switch lf.num {
						case 1:
							rl.key = asInt64(lf.varint)
						case 2:
							rl.str = asInt64(lf.varint)
						case 3:
							rl.num = asInt64(lf.varint)
							rl.hasNum = true
						}
						return nil
					})
					rs.labs = append(rs.labs, rl)
				}
				return err
			})
			if err != nil {
				return err
			}
			samples = append(samples, rs)
		case 4: // location
			var rl rawLocation
			err := walkFields(f.payload, func(lf field) error {
				switch lf.num {
				case 1:
					rl.id = lf.varint
				case 3:
					rl.address = lf.varint
				case 4: // line
					return walkFields(lf.payload, func(ln field) error {
						if ln.num == 1 {
							rl.funcIDs = append(rl.funcIDs, ln.varint)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[rl.id] = rl
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(f.payload, func(ff field) error {
				switch ff.num {
				case 1:
					id = ff.varint
				case 2:
					name = asInt64(ff.varint)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strtab = append(strtab, string(f.payload))
		case 10: // duration_nanos
			prof.DurationNanos = asInt64(f.varint)
		case 11: // period_type
			vt, err := parseValueType(f.payload)
			if err != nil {
				return err
			}
			period = vt
		case 12: // period
			prof.Period = asInt64(f.varint)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strtab) {
			return ""
		}
		return strtab[i]
	}
	for _, vt := range valueType {
		prof.SampleTypes = append(prof.SampleTypes, ValueType{Type: str(vt.typ), Unit: str(vt.unit)})
	}
	prof.PeriodType = ValueType{Type: str(period.typ), Unit: str(period.unit)}

	locName := func(id uint64) string {
		l, ok := locs[id]
		if !ok {
			return fmt.Sprintf("loc#%d", id)
		}
		if len(l.funcIDs) > 0 {
			if name := str(funcs[l.funcIDs[0]]); name != "" {
				return name
			}
		}
		return fmt.Sprintf("0x%x", l.address)
	}

	for _, rs := range samples {
		s := &Sample{Values: rs.values}
		for _, id := range rs.locIDs {
			s.Stack = append(s.Stack, locName(id))
		}
		if len(rs.labs) > 0 {
			s.Labels = make(map[string]string, len(rs.labs))
			for _, rl := range rs.labs {
				if rl.hasNum {
					s.Labels[str(rl.key)] = strconv.FormatInt(rl.num, 10)
				} else {
					s.Labels[str(rl.key)] = str(rl.str)
				}
			}
		}
		prof.Samples = append(prof.Samples, s)
	}
	return prof, nil
}

// labelKey renders a sample's labels canonically for merging.
func (s *Sample) labelKey() string {
	if len(s.Labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Labels[k])
		b.WriteByte(';')
	}
	return b.String()
}

// Merge sums profiles of identical sample-type shape: samples with the
// same stack and label set add their values; the merge feeds the
// attribution table.
func Merge(profiles ...*Profile) (*Profile, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("profiling: nothing to merge")
	}
	out := &Profile{
		SampleTypes: profiles[0].SampleTypes,
		PeriodType:  profiles[0].PeriodType,
		Period:      profiles[0].Period,
	}
	type aggKey struct{ stack, labels string }
	agg := map[aggKey]*Sample{}
	var order []aggKey
	for _, p := range profiles {
		if len(p.SampleTypes) != len(out.SampleTypes) {
			return nil, fmt.Errorf("profiling: merging profiles with different sample types")
		}
		for i, st := range p.SampleTypes {
			if st != out.SampleTypes[i] {
				return nil, fmt.Errorf("profiling: merging profiles with different sample types")
			}
		}
		out.DurationNanos += p.DurationNanos
		for _, s := range p.Samples {
			k := aggKey{stack: stackKey(s.Stack), labels: s.labelKey()}
			dst, ok := agg[k]
			if !ok {
				dst = &Sample{Stack: s.Stack, Values: make([]int64, len(s.Values)), Labels: s.Labels}
				agg[k] = dst
				order = append(order, k)
			}
			for i, v := range s.Values {
				dst.Values[i] += v
			}
		}
	}
	for _, k := range order {
		out.Samples = append(out.Samples, agg[k])
	}
	return out, nil
}

func stackKey(stack []string) string {
	var b bytes.Buffer
	for _, fr := range stack {
		b.WriteString(fr)
		b.WriteByte('\n')
	}
	return b.String()
}
