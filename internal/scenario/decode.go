package scenario

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"rrbus/internal/bus"
	"rrbus/internal/trace"
)

// DecodeResult decodes one Result row. The bytes json.Marshal writes for
// a Result are read in one pass without reflection: an object of
// Result's keys in declaration order, each one optional, with no white
// space, strings without escapes and numbers in the JSON grammar parsed
// by strconv. Any other input is handed to json.Unmarshal, which
// therefore reads every row a build whose Result differs wrote and
// decides every error. Either way the row is the one json.Unmarshal
// returns for the same bytes, and nothing in it aliases data.
func DecodeResult(data []byte) (Result, error) {
	if r, ok := decodeResultFast(data); ok {
		return r, nil
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return Result{}, err
	}
	return r, nil
}

// resultKeys and eventKeys are the JSON keys of Result and trace.Event
// in declaration order.
var (
	resultKeys = []string{"schema", "id", "platform", "cores", "cycles", "total_cycles", "iters", "requests",
		"max_gamma", "avg_gamma", "utilization", "isolation_cycles", "slowdown", "gamma_hist", "contenders_hist", "trace"}
	eventKeys = []string{"port", "kind", "ready", "grant", "gamma", "occ", "addr"}
)

// decodeResultFast is DecodeResult's one-pass reader. It reports false
// for any input outside the shape DecodeResult documents, and for any
// number strconv does not parse into its field, leaving that input to
// json.Unmarshal.
func decodeResultFast(data []byte) (r Result, ok bool) {
	d := rowDecoder{b: data}
	ok = d.object(resultKeys, func(field int) (ok bool) {
		switch field {
		case 0:
			r.Schema, ok = d.readInt()
		case 1:
			r.ID, ok = d.readString()
		case 2:
			r.Platform, ok = d.readString()
		case 3:
			r.Cores, ok = d.readInt()
		case 4:
			r.Cycles, ok = d.readUint(64)
		case 5:
			r.TotalCycles, ok = d.readUint(64)
		case 6:
			r.Iters, ok = d.readUint(64)
		case 7:
			r.Requests, ok = d.readUint(64)
		case 8:
			r.MaxGamma, ok = d.readUint(64)
		case 9:
			r.AvgGamma, ok = d.readFloat()
		case 10:
			r.Utilization, ok = d.readFloat()
		case 11:
			r.IsolationCycles, ok = d.readUint(64)
		case 12:
			r.Slowdown, ok = d.readInt64()
		case 13:
			r.GammaHist, ok = d.readUints()
		case 14:
			r.ContendersHist, ok = d.readUints()
		case 15:
			r.Trace, ok = d.readEvents()
		}
		return ok
	})
	return r, ok && d.i == len(data)
}

// rowDecoder reads a row at offset i of b.
type rowDecoder struct {
	b []byte
	i int
}

// next consumes c if it is the next byte.
func (d *rowDecoder) next(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// object reads an object whose members are keys in order, each one
// optional, calling value with the member's index in keys to read each
// value.
func (d *rowDecoder) object(keys []string, value func(field int) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	for field := 0; ; field++ {
		if !d.next('"') {
			return false
		}
		end := bytes.IndexByte(d.b[d.i:], '"')
		if end < 0 {
			return false
		}
		key := d.b[d.i : d.i+end]
		for field < len(keys) && string(key) != keys[field] {
			field++
		}
		d.i += end + 1
		if field == len(keys) || !d.next(':') || !value(field) {
			return false
		}
		if !d.next(',') {
			return d.next('}')
		}
	}
}

// readNumber reads a number in the JSON grammar.
func (d *rowDecoder) readNumber() ([]byte, bool) {
	b, i := d.b, d.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	num := b[d.i:i]
	d.i = i
	return num, true
}

// The numeric readers parse a number as json.Unmarshal does for a field
// of their type, and report false where it would fail.

func (d *rowDecoder) readInt() (int, bool) {
	num, ok := d.readNumber()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	return int(n), err == nil
}

func (d *rowDecoder) readInt64() (int64, bool) {
	num, ok := d.readNumber()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	return n, err == nil
}

// readUint reads an unsigned integer of the given bit size.
func (d *rowDecoder) readUint(bits int) (uint64, bool) {
	num, ok := d.readNumber()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(string(num), 10, bits)
	return n, err == nil
}

func (d *rowDecoder) readFloat() (float64, bool) {
	num, ok := d.readNumber()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	return f, err == nil
}

// readString reads a string with no escape, no control byte and valid
// UTF-8, which json.Unmarshal takes as is.
func (d *rowDecoder) readString() (string, bool) {
	if !d.next('"') {
		return "", false
	}
	start := d.i
	ascii := true
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			s := d.b[start:d.i]
			d.i++
			if !ascii && !utf8.Valid(s) {
				return "", false
			}
			return string(s), true
		case c == '\\' || c < ' ':
			return "", false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return "", false
}

// readUints reads a non-empty array of uint64s.
func (d *rowDecoder) readUints() ([]uint64, bool) {
	if !d.next('[') {
		return nil, false
	}
	out := make([]uint64, 0, 1+d.countInArray(','))
	for {
		n, ok := d.readUint(64)
		if !ok {
			return nil, false
		}
		out = append(out, n)
		if !d.next(',') {
			return out, d.next(']')
		}
	}
}

// readEvents reads a non-empty array of trace events.
func (d *rowDecoder) readEvents() ([]trace.Event, bool) {
	if !d.next('[') {
		return nil, false
	}
	out := make([]trace.Event, 0, d.countInArray('{'))
	for {
		var e trace.Event
		var kind uint64
		ok := d.object(eventKeys, func(field int) (ok bool) {
			switch field {
			case 0:
				e.Port, ok = d.readInt()
			case 1:
				kind, ok = d.readUint(8)
				e.Kind = bus.Kind(kind)
			case 2:
				e.Ready, ok = d.readUint(64)
			case 3:
				e.Grant, ok = d.readUint(64)
			case 4:
				e.Gamma, ok = d.readUint(64)
			case 5:
				e.Occupancy, ok = d.readInt()
			case 6:
				e.Addr, ok = d.readUint(64)
			}
			return ok
		})
		if !ok {
			return nil, false
		}
		out = append(out, e)
		if !d.next(',') {
			return out, d.next(']')
		}
	}
}

// countInArray counts the bytes c from the read offset to the next
// closing bracket: it sizes the array being read, exactly for the
// arrays a Result holds, which nest none.
func (d *rowDecoder) countInArray(c byte) int {
	rest := d.b[d.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte{c})
}
