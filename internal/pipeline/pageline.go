package pipeline

import (
	"bytes"
	"encoding/json"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// decodePageLine decodes one NDJSON page line. The canonical envelope —
// an object whose keys are literally "uri" and "html", each at most once
// and each a JSON string — is decoded in one pass over line; scratch is
// the caller's reusable unescape buffer. Any other line goes to
// encoding/json, so results and error texts stay exactly its own.
func decodePageLine(line []byte, scratch *[]byte) (PageLine, error) {
	if in, ok := decodeCanonicalPageLine(line, scratch); ok {
		return in, nil
	}
	var in PageLine
	err := json.Unmarshal(line, &in)
	return in, err
}

// decodeCanonicalPageLine is the single-pass decoder. ok is false for
// any line it does not decode exactly as encoding/json would: unknown,
// case-folded, escaped or duplicate keys, non-string values, lone
// surrogates, invalid UTF-8, control characters, malformed syntax or
// trailing bytes.
func decodeCanonicalPageLine(line []byte, scratch *[]byte) (in PageLine, ok bool) {
	i := skipJSONSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return PageLine{}, false
	}
	var seen uint8
	for {
		i = skipJSONSpace(line, i+1)
		var dst *string
		var bit uint8
		switch rest := line[i:]; {
		case bytes.HasPrefix(rest, []byte(`"uri"`)):
			dst, bit, i = &in.URI, 1, i+len(`"uri"`)
		case bytes.HasPrefix(rest, []byte(`"html"`)):
			dst, bit, i = &in.HTML, 2, i+len(`"html"`)
		default:
			return PageLine{}, false
		}
		if seen&bit != 0 {
			return PageLine{}, false
		}
		seen |= bit
		i = skipJSONSpace(line, i)
		if i == len(line) || line[i] != ':' {
			return PageLine{}, false
		}
		i = skipJSONSpace(line, i+1)
		s, n, ok := unquoteJSONString(line[i:], scratch)
		if !ok {
			return PageLine{}, false
		}
		*dst = s
		i = skipJSONSpace(line, i+n)
		if i == len(line) {
			return PageLine{}, false
		}
		switch line[i] {
		case ',':
			continue
		case '}':
			if skipJSONSpace(line, i+1) != len(line) {
				return PageLine{}, false
			}
			return in, true
		}
		return PageLine{}, false
	}
}

// skipJSONSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && isJSONSpace(b[i]) {
		i++
	}
	return i
}

func isJSONSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// unquoteJSONString decodes the JSON string literal at the start of b,
// returning its value and the literal's length in bytes. A literal
// without escapes is copied out directly; one with escapes is unescaped
// into *scratch (reused across calls) and copied out from there, so
// either way the string costs exactly one allocation. ok is false where
// encoding/json would reject the literal or substitute U+FFFD.
func unquoteJSONString(b []byte, scratch *[]byte) (s string, n int, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return "", 0, false
	}
	buf := (*scratch)[:0]
	escaped := false
	run, i := 1, 1 // b[run:i] is the pending unescaped run
	for {
		for i < len(b) && plainJSONByte[b[i]] {
			i++
		}
		if i == len(b) {
			return "", 0, false
		}
		switch c := b[i]; {
		case c == '"':
			if !escaped {
				return string(b[1:i]), i + 1, true
			}
			buf = append(buf, b[run:i]...)
			*scratch = buf
			return string(buf), i + 1, true
		case c == '\\':
			r, w := jsonEscape(b[i:])
			if w == 0 {
				return "", 0, false
			}
			buf = utf8.AppendRune(append(buf, b[run:i]...), r)
			escaped = true
			i += w
			run = i
		case c < ' ':
			return "", 0, false
		default:
			r, w := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && w == 1 {
				return "", 0, false
			}
			i += w
		}
	}
}

// plainJSONByte marks the bytes a JSON string literal carries through
// unchanged: ASCII other than controls, the quote and the backslash.
var plainJSONByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// jsonEscape decodes the escape sequence at the start of b (b[0] is the
// backslash), a surrogate pair as one rune. w is its length in bytes, or
// 0 when the sequence is invalid or a lone surrogate.
func jsonEscape(b []byte) (r rune, w int) {
	if len(b) < 2 {
		return 0, 0
	}
	switch b[1] {
	case '"', '\\', '/':
		return rune(b[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		r, ok := hex4(b[2:])
		if !ok {
			return 0, 0
		}
		if !utf16.IsSurrogate(r) {
			return r, 6
		}
		if len(b) < 12 || b[6] != '\\' || b[7] != 'u' {
			return 0, 0
		}
		lo, ok := hex4(b[8:])
		if !ok {
			return 0, 0
		}
		if r = utf16.DecodeRune(r, lo); r == unicode.ReplacementChar {
			return 0, 0
		}
		return r, 12
	}
	return 0, 0
}

// hex4 parses the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		v := hexDigit[c]
		if v < 0 {
			return 0, false
		}
		r = r<<4 | rune(v)
	}
	return r, true
}

// hexDigit maps a byte to its hex digit value, or -1.
var hexDigit = func() (t [256]int8) {
	for c := range t {
		switch {
		case '0' <= c && c <= '9':
			t[c] = int8(c - '0')
		case 'a' <= c && c <= 'f':
			t[c] = int8(c - 'a' + 10)
		case 'A' <= c && c <= 'F':
			t[c] = int8(c - 'A' + 10)
		default:
			t[c] = -1
		}
	}
	return t
}()
