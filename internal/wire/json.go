package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
)

// The v1 codec without reflection. encoding/json is the specification of a
// v1 payload; this file reproduces it for the frames the protocol carries
// and hands every other frame to encoding/json, so the bytes written and
// the values read are always encoding/json's.
//
// Encoding appends exactly what json.Marshal writes when every string is
// printable ASCII that json.Marshal leaves unescaped (it escapes ", \, <, >
// and &), every float is finite and a Response carries no Stats; anything
// else is marshalled by encoding/json.
//
// Decoding scans a payload once and accepts the canonical subset: one
// object, keys in any order and spelled exactly as the struct tags, any
// whitespace between tokens, strings of ASCII with no escapes, numbers that
// fit their field, info at most once. Verbs and response types come back as
// the Type* constants and targets, app names and codes through the reader's
// Interner, so a steady-state cycle decodes without allocating. Anything
// outside the subset — an escape or non-ASCII byte, an unknown key or one
// differing only in case, null, a repeated info, a number the field cannot
// hold, a Stats payload, trailing bytes — is decoded by json.Unmarshal,
// which also reports every malformed payload.

// appendFrame appends v as one v1 frame, length header and payload.
func appendFrame(buf []byte, v any) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	ok := false
	switch v := v.(type) {
	case *Request:
		buf, ok = appendRequest(buf, v)
	case *Response:
		buf, ok = appendResponse(buf, v)
	}
	if !ok {
		payload, err := json.Marshal(v)
		if err != nil {
			return buf[:start], fmt.Errorf("wire: marshal: %w", err)
		}
		buf = append(buf[:start+4], payload...)
	}
	n := len(buf) - start - 4
	if n > MaxFrame {
		return buf[:start], fmt.Errorf("wire: frame of %d bytes exceeds max %d", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// appendRequest appends json.Marshal(r), or appends nothing and reports
// false when r is outside what it writes.
func appendRequest(b []byte, r *Request) ([]byte, bool) {
	if r == nil || !plain(r.Type) || !plain(r.App) || !plain(r.Target) ||
		!finite(r.BytesDone) || !finite(r.DegradedS) {
		return b, false
	}
	for k, v := range r.Info {
		if !plain(k) || !plain(v) {
			return b, false
		}
	}
	b = appendUint(b, `{"seq":`, r.Seq)
	b = appendString(b, `,"type":`, r.Type)
	if r.App != "" {
		b = appendString(b, `,"app":`, r.App)
	}
	if r.Cores != 0 {
		b = strconv.AppendInt(append(b, `,"cores":`...), int64(r.Cores), 10)
	}
	if len(r.Info) > 0 {
		b = append(b, `,"info":{`...)
		sep := ""
		for _, k := range slices.Sorted(maps.Keys(r.Info)) {
			b = appendString(b, sep, k)
			b = appendString(b, ":", r.Info[k])
			sep = ","
		}
		b = append(b, '}')
	}
	if r.BytesDone != 0 {
		b = appendFloat(b, `,"bytes_done":`, r.BytesDone)
	}
	if r.Target != "" {
		b = appendString(b, `,"target":`, r.Target)
	}
	if r.Incarnation != 0 {
		b = appendUint(b, `,"incarnation":`, r.Incarnation)
	}
	if r.SelfGrants != 0 {
		b = appendUint(b, `,"self_grants":`, r.SelfGrants)
	}
	if r.DegradedS != 0 {
		b = appendFloat(b, `,"degraded_s":`, r.DegradedS)
	}
	return append(b, '}'), true
}

// appendResponse is appendRequest for a Response without Stats.
func appendResponse(b []byte, r *Response) ([]byte, bool) {
	if r == nil || r.Stats != nil || !plain(r.Type) || !plain(r.Err) || !plain(r.Code) || !plain(r.Target) {
		return b, false
	}
	b = append(b, '{')
	if r.Seq != 0 {
		b = append(appendUint(b, `"seq":`, r.Seq), ',')
	}
	b = appendString(b, `"type":`, r.Type)
	if r.OK {
		b = append(b, `,"ok":true`...)
	}
	if r.Err != "" {
		b = appendString(b, `,"err":`, r.Err)
	}
	if r.Code != "" {
		b = appendString(b, `,"code":`, r.Code)
	}
	if r.Authorized {
		b = append(b, `,"authorized":true`...)
	}
	if r.Target != "" {
		b = appendString(b, `,"target":`, r.Target)
	}
	return append(b, '}'), true
}

// plain reports whether json.Marshal writes s as its own bytes in quotes.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func appendString(b []byte, key, s string) []byte {
	b = append(append(b, key...), '"')
	return append(append(b, s...), '"')
}

func appendUint(b []byte, key string, v uint64) []byte {
	return strconv.AppendUint(append(b, key...), v, 10)
}

// appendFloat writes f as encoding/json does: the shortest 'f' form, or 'e'
// below 1e-6 and from 1e21 on, with a one-digit negative exponent unpadded.
func appendFloat(b []byte, key string, f float64) []byte {
	b = append(b, key...)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// decodeRequest sets the fields of r that payload names, as json.Unmarshal
// would, or reports false and leaves r untouched when payload is outside the
// canonical subset.
func decodeRequest(payload []byte, r *Request, in *Interner) bool {
	if r == nil {
		return false
	}
	s := scanner{b: payload}
	v := *r
	var info map[string]string
	for first := true; ; first = false {
		key, more, ok := s.member(first)
		if !ok {
			return false
		}
		if !more {
			break
		}
		switch string(key) {
		case "seq":
			v.Seq, ok = s.uint()
		case "type":
			v.Type, ok = s.typeName(in)
		case "app":
			v.App, ok = s.name(in)
		case "cores":
			v.Cores, ok = s.int()
		case "info":
			if info != nil {
				return false
			}
			info, ok = s.stringMap()
		case "bytes_done":
			v.BytesDone, ok = s.float()
		case "target":
			v.Target, ok = s.name(in)
		case "incarnation":
			v.Incarnation, ok = s.uint()
		case "self_grants":
			v.SelfGrants, ok = s.uint()
		case "degraded_s":
			v.DegradedS, ok = s.float()
		default:
			return false
		}
		if !ok {
			return false
		}
	}
	if !s.end() {
		return false
	}
	if info != nil {
		// json.Unmarshal fills a map already present rather than replacing it.
		if v.Info != nil {
			maps.Copy(v.Info, info)
		} else {
			v.Info = info
		}
	}
	*r = v
	return true
}

// decodeResponse is decodeRequest for a Response; a Stats payload is
// outside the subset.
func decodeResponse(payload []byte, r *Response, in *Interner) bool {
	if r == nil {
		return false
	}
	s := scanner{b: payload}
	v := *r
	for first := true; ; first = false {
		key, more, ok := s.member(first)
		if !ok {
			return false
		}
		if !more {
			break
		}
		switch string(key) {
		case "seq":
			v.Seq, ok = s.uint()
		case "type":
			v.Type, ok = s.typeName(in)
		case "ok":
			v.OK, ok = s.bool()
		case "err":
			var b []byte
			b, ok = s.str()
			v.Err = string(b)
		case "code":
			v.Code, ok = s.name(in)
		case "authorized":
			v.Authorized, ok = s.bool()
		case "target":
			v.Target, ok = s.name(in)
		default:
			return false
		}
		if !ok {
			return false
		}
	}
	if !s.end() {
		return false
	}
	*r = v
	return true
}

// typeNames are the values of Request.Type and Response.Type a decoder
// returns as the constants themselves.
var typeNames = [...]string{TypeRegister, TypePrepare, TypeComplete, TypeInform, TypeProgress,
	TypeCheck, TypeWait, TypeRelease, TypeEnd, TypeStats, TypeResp, TypeGrant, TypeRevoke}

// scanner is a cursor over one payload. Each method skips the whitespace
// in front of its token and reports false on anything outside the
// canonical subset, after which the scanner is abandoned.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// peek returns the next byte, 0 at the end.
func (s *scanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// is consumes c if it is the next token.
func (s *scanner) is(c byte) bool {
	s.skip()
	if s.peek() == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.skip()
	return s.i == len(s.b)
}

// member moves to an object's next member — its first, after the opening
// brace, when first is set — and returns its key with the colon consumed,
// or more=false once the closing brace is consumed.
func (s *scanner) member(first bool) (key []byte, more, ok bool) {
	if first && !s.is('{') {
		return nil, false, false
	}
	if s.is('}') {
		return nil, false, true
	}
	if !first && !s.is(',') {
		return nil, false, false
	}
	if key, ok = s.str(); !ok || !s.is(':') {
		return nil, false, false
	}
	return key, true, true
}

// str reads a string of ASCII with no escapes and returns its contents,
// aliasing the payload.
func (s *scanner) str() ([]byte, bool) {
	if !s.is('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c > 0x7f || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// name reads a string through the interner.
func (s *scanner) name(in *Interner) (string, bool) {
	b, ok := s.str()
	return in.Intern(b), ok
}

// typeName reads a type field, returning the Type* constant it spells.
func (s *scanner) typeName(in *Interner) (string, bool) {
	b, ok := s.str()
	for _, t := range typeNames {
		if string(b) == t {
			return t, ok
		}
	}
	return in.Intern(b), ok
}

// stringMap reads an object of string values into a new map.
func (s *scanner) stringMap() (map[string]string, bool) {
	m := make(map[string]string)
	for first := true; ; first = false {
		key, more, ok := s.member(first)
		if !ok {
			return nil, false
		}
		if !more {
			return m, true
		}
		val, ok := s.str()
		if !ok {
			return nil, false
		}
		m[string(key)] = string(val)
	}
}

func (s *scanner) bool() (v, ok bool) {
	s.skip()
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false, true
	}
	return false, false
}

// number reads a token of JSON's number grammar (which strconv's parsers
// do not check: they also take hex, underscores, "Inf" and a leading +).
func (s *scanner) number() ([]byte, bool) {
	s.skip()
	start := s.i
	if s.peek() == '-' {
		s.i++
	}
	if n := s.digits(); n == 0 || n > 1 && s.b[s.i-n] == '0' {
		return nil, false
	}
	if s.peek() == '.' {
		s.i++
		if s.digits() == 0 {
			return nil, false
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.i++
		if c := s.peek(); c == '+' || c == '-' {
			s.i++
		}
		if s.digits() == 0 {
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

// digits consumes a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// The number parsers are json.Unmarshal's own, so a sign, fraction or
// exponent an integer field cannot take and a value out of the field's
// range fail here as they fail there.

func (s *scanner) uint() (uint64, bool) {
	tok, ok := s.number()
	v, err := strconv.ParseUint(string(tok), 10, 64)
	return v, ok && err == nil
}

func (s *scanner) int() (int, bool) {
	tok, ok := s.number()
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	return int(v), ok && err == nil
}

func (s *scanner) float() (float64, bool) {
	tok, ok := s.number()
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, ok && err == nil
}
