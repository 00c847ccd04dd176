package api

import (
	"bytes"
	"encoding/json"
)

// DecodeSolveRequest decodes a POST /v1/solve body into req, giving it the
// meaning json.NewDecoder(bytes.NewReader(body)).Decode(req) gives it.
//
// A body of the envelope shape clients write,
//
//	{"instance":{...},"options":{...},"async":true}
//
// with the three keys spelled exactly, each at most once, in any order and
// with any JSON whitespace, is scanned once: the instance value is found
// by a structural skip and kept as a sub-slice of body (so req.Instance
// aliases body), and only the small options and async values go through
// encoding/json. Every other body — an "ilp" key, null, an unknown,
// escaped, case-variant or repeated key, a non-object instance, trailing
// non-space bytes, malformed JSON — takes the encoding/json path unchanged,
// which gives it its meaning or its error.
//
// The scan does not validate the instance bytes: it accepts a body whose
// instance is balanced but not valid JSON, which encoding/json would
// reject. A caller that fails to parse req.Instance must therefore decode
// body again with encoding/json and report that result; the scan never
// decides a rejection itself.
func DecodeSolveRequest(body []byte, req *SolveRequest) error {
	if scanEnvelope(body, &req.Instance, &req.Options, &req.Async) {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// DecodeSessionRequest is DecodeSolveRequest for a POST /v1/sessions body:
// the envelope it scans has the keys "instance" and "options" only, and
// every other body is decoded by encoding/json into a SessionRequest (which
// ignores unknown keys such as "async"). The same caveat holds: a caller
// that fails to parse req.Instance must decode body again with
// encoding/json.
func DecodeSessionRequest(body []byte, req *SessionRequest) error {
	if scanEnvelope(body, &req.Instance, &req.Options, nil) {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// scanEnvelope scans body as a strict top-level envelope with the keys
// "instance", "options" and, when async is non-nil, "async". On success it
// stores the values the way encoding/json would: the instance span
// replaces *instance, and the options and async values are decoded over
// *options and *async. It reports false, leaving all three untouched, for
// any body outside that shape.
func scanEnvelope(body []byte, instance *json.RawMessage, options *SolveOptions, async *bool) bool {
	s := envScanner{data: body}
	if !s.consume('{') {
		return false
	}
	var inst json.RawMessage
	opts := *options
	var as bool
	if async != nil {
		as = *async
	}
	var seenInst, seenOpts, seenAsync bool
	if !s.consume('}') {
		for {
			k := s.key()
			s.skipSpace()
			start := s.pos
			switch {
			case k == "instance" && !seenInst:
				seenInst = true
				// Only an object can be an instance; anything else is left
				// to encoding/json and the instance decoder's own errors.
				if s.pos >= len(body) || body[s.pos] != '{' || !s.skipComposite() {
					return false
				}
				inst = body[start:s.pos:s.pos]
			case k == "options" && !seenOpts:
				seenOpts = true
				if !s.skipValue() || json.Unmarshal(body[start:s.pos], &opts) != nil {
					return false
				}
			case k == "async" && async != nil && !seenAsync:
				seenAsync = true
				if !s.skipValue() || json.Unmarshal(body[start:s.pos], &as) != nil {
					return false
				}
			default:
				return false
			}
			if s.consume(',') {
				continue
			}
			if s.consume('}') {
				break
			}
			return false
		}
	}
	s.skipSpace()
	if s.pos != len(body) {
		return false
	}
	if seenInst {
		*instance = inst
	}
	*options = opts
	if async != nil {
		*async = as
	}
	return true
}

// envScanner is the cursor of scanEnvelope.
type envScanner struct {
	data []byte
	pos  int
}

func (s *envScanner) skipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (s *envScanner) consume(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// key reads `"name":` and returns name if it is one of the envelope's
// keys, spelled exactly, or "" otherwise.
func (s *envScanner) key() string {
	s.skipSpace()
	if s.pos >= len(s.data) || s.data[s.pos] != '"' {
		return ""
	}
	for _, k := range [...]string{"instance", "options", "async"} {
		end := s.pos + len(k) + 2
		if end <= len(s.data) && s.data[end-1] == '"' && string(s.data[s.pos+1:end-1]) == k {
			s.pos = end
			if s.consume(':') {
				return k
			}
			return ""
		}
	}
	return ""
}

// skipValue moves past one value without validating it: a string, an
// object or array by bracket depth, or anything else up to the next
// delimiter. The span it skips is decoded by encoding/json, which checks
// it; it reports false if the value is empty or runs off the end.
func (s *envScanner) skipValue() bool {
	if s.pos >= len(s.data) {
		return false
	}
	switch s.data[s.pos] {
	case '{', '[':
		return s.skipComposite()
	case '"':
		return s.skipString()
	}
	start := s.pos
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			return s.pos > start
		}
		s.pos++
	}
	return false
}

// maxScanDepth bounds the nesting skipComposite follows. Instances nest
// three deep; a deeper value is left to encoding/json, whose own nesting
// limit counts the envelope's level too, which a decode of the value's
// span alone would not.
const maxScanDepth = 64

// skipComposite moves past the object or array that starts at the cursor,
// counting brackets of either kind and skipping strings, and reports
// whether the depth returned to zero before the end of the data (and
// stayed within maxScanDepth). It does not check that brackets pair up or
// that the contents are JSON.
func (s *envScanner) skipComposite() bool {
	depth := 0
	for i := s.pos; i < len(s.data); i++ {
		c := s.data[i]
		if !structural[c] {
			continue // digits, commas, whitespace: most of an instance
		}
		switch c {
		case '{', '[':
			if depth++; depth > maxScanDepth {
				return false
			}
		case '}', ']':
			if depth--; depth == 0 {
				s.pos = i + 1
				return true
			}
		case '"':
			s.pos = i
			if !s.skipString() {
				return false
			}
			i = s.pos - 1
		}
	}
	return false
}

// structural marks the bytes skipComposite acts on.
var structural = [256]bool{'{': true, '}': true, '[': true, ']': true, '"': true}

// skipString moves past the string that starts at the cursor, honouring
// backslash escapes, and reports whether it was closed.
func (s *envScanner) skipString() bool {
	for i := s.pos + 1; i < len(s.data); i++ {
		switch s.data[i] {
		case '\\':
			i++
		case '"':
			s.pos = i + 1
			return true
		}
	}
	return false
}
