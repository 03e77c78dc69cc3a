package tuning

import (
	"encoding/json"
	"strconv"

	"repro/internal/sched"
)

// measurementJSON is Measurement without its UnmarshalJSON method: the
// type encoding/json decodes when the layout decoder declines.
type measurementJSON Measurement

// UnmarshalJSON decodes a measurement as json.Unmarshal would, without
// reflection for the bytes a warm campaign reads. The compact layout
// json.Marshal writes — the seven fields in order, discarded present
// or not — is parsed directly, its numbers by the strconv calls
// encoding/json makes. Any other input goes to encoding/json: leading
// or inner whitespace, another key order, unknown or repeated keys, a
// whole checkpointed Record, null, or a number an int or float64 cannot
// hold. The direct parse accepts only valid JSON, so the method may
// also be called without encoding/json's validity scan.
func (m *Measurement) UnmarshalJSON(data []byte) error {
	if v, ok := m.decodeLayout(data); ok {
		*m = v
		return nil
	}
	return json.Unmarshal(data, (*measurementJSON)(m))
}

// DecodeCell is UnmarshalJSON: the scheduler decodes checkpointed and
// cached measurements with it, without encoding/json's validity scan.
// FuzzMeasurementDecode holds it to sched.CellDecoder's contract.
func (m *Measurement) DecodeCell(data []byte) error { return m.UnmarshalJSON(data) }

var _ sched.CellDecoder = (*Measurement)(nil)

// decodeLayout parses data in json.Marshal's layout into a copy of m,
// so an absent discarded keeps m's value, as encoding/json keeps it.
// It reports false, with m untouched, for anything else.
func (m *Measurement) decodeLayout(data []byte) (Measurement, bool) {
	v := *m
	d := layoutDecoder{data}
	ok := d.key(`{"iterations":`) && d.int(&v.Iterations) &&
		d.key(`,"instances":`) && d.int(&v.Instances) &&
		d.key(`,"target_count":`) && d.int(&v.TargetCount) &&
		d.key(`,"violations":`) && d.int(&v.Violations) &&
		d.key(`,"sim_seconds":`) && d.float(&v.SimSeconds) &&
		d.key(`,"target_rate":`) && d.float(&v.TargetRate)
	if ok && d.key(`,"discarded":`) {
		ok = d.int(&v.Discarded)
	}
	return v, ok && d.key(`}`) && len(d.rest) == 0
}

// layoutDecoder consumes a fixed JSON layout from the front of rest.
type layoutDecoder struct{ rest []byte }

// key consumes the literal s.
func (d *layoutDecoder) key(s string) bool {
	if len(d.rest) < len(s) || string(d.rest[:len(s)]) != s {
		return false
	}
	d.rest = d.rest[len(s):]
	return true
}

// number consumes one JSON number token.
func (d *layoutDecoder) number() ([]byte, bool) {
	b := d.rest
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	d.rest = b[i:]
	return b[:i], true
}

// digits returns the index of the first non-digit of b from i on.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// int consumes a number that fits an int, as encoding/json reads one
// into an int field: ParseInt refuses a fraction or an exponent.
func (d *layoutDecoder) int(dst *int) bool {
	num, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil || int64(int(n)) != n {
		return false
	}
	*dst = int(n)
	return true
}

// float consumes a number that fits a float64, as encoding/json reads
// one into a float64 field.
func (d *layoutDecoder) float(dst *float64) bool {
	num, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return false
	}
	*dst = f
	return true
}
