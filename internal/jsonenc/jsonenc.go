// Package jsonenc appends JSON to a byte slice exactly as encoding/json
// would marshal it, without reflection or allocation: scalars, and flat
// objects built member by member in struct-field order. It exists for
// append-only JSONL writers (the fleet's event log and SSE feed) whose
// output is diffed byte for byte against logs written through
// json.Marshal: everything here is pinned to the standard encoder by
// differential fuzz tests, so switching a writer over changes its cost
// and nothing else.
package jsonenc

import (
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string with encoding/json's default
// escaping: control characters, quote and backslash, the HTML-sensitive
// <, > and &, U+2028/U+2029, and invalid UTF-8 as U+FFFD.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json formats a float64. NaN and the
// infinities have no JSON form: like json.Marshal, it refuses them,
// returning dst unchanged and false.
func AppendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	abs := math.Abs(f)
	format := byte('f')
	//lint:ignore floateq exact zero takes the 'f' format, as in encoding/json
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as in encoding/json.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// AppendTime appends t as time.Time.MarshalJSON renders it: a quoted
// RFC 3339 timestamp with nanoseconds. It refuses what MarshalJSON
// refuses (a year outside [0,9999], a zone offset of 24 hours or more),
// returning dst unchanged and false.
func AppendTime(dst []byte, t time.Time) ([]byte, bool) {
	n0 := len(dst)
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	b := dst[n0+1:]
	switch {
	case b[len("9999")] != '-':
		return dst[:n0], false
	case b[len(b)-1] != 'Z':
		zone := b[len(b)-len("Z07:00"):]
		if ('0' <= zone[0] && zone[0] <= '9') || 10*(zone[1]-'0')+(zone[2]-'0') >= 24 {
			return dst[:n0], false
		}
	}
	return append(dst, '"'), true
}

// Object appends one flat JSON object, member by member, the way
// json.Marshal renders a struct whose fields are declared in the same
// order. Keys are written as given and must need no escaping. If any
// member is one JSON cannot carry, End reports false and leaves the
// destination as it was before Begin — json.Marshal's all-or-nothing.
type Object struct {
	buf   []byte
	start int
	bad   bool
}

// Begin starts an object at the end of dst.
func Begin(dst []byte) Object {
	return Object{buf: append(dst, '{'), start: len(dst)}
}

func (o *Object) key(k string) {
	if len(o.buf) > o.start+1 {
		o.buf = append(o.buf, ',')
	}
	o.buf = append(o.buf, '"')
	o.buf = append(o.buf, k...)
	o.buf = append(o.buf, '"', ':')
}

// String appends a string member.
func (o *Object) String(k, v string) {
	o.key(k)
	o.buf = AppendString(o.buf, v)
}

// OptString appends a string member tagged omitempty.
func (o *Object) OptString(k, v string) {
	if v != "" {
		o.String(k, v)
	}
}

// Time appends a time.Time member.
func (o *Object) Time(k string, t time.Time) {
	o.key(k)
	var ok bool
	o.buf, ok = AppendTime(o.buf, t)
	o.bad = o.bad || !ok
}

// OptFloat appends a float64 member tagged omitempty (±0 is empty).
func (o *Object) OptFloat(k string, v float64) {
	//lint:ignore floateq omitempty drops exactly ±0, as encoding/json does
	if v == 0 {
		return
	}
	o.key(k)
	var ok bool
	o.buf, ok = AppendFloat(o.buf, v)
	o.bad = o.bad || !ok
}

// End closes the object and returns the extended slice, or the
// destination unchanged and false if a member was refused.
func (o *Object) End() ([]byte, bool) {
	if o.bad {
		return o.buf[:o.start], false
	}
	return append(o.buf, '}'), true
}
