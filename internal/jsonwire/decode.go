package jsonwire

import (
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxSkipDepth bounds the nesting of skipped unknown values, as
// encoding/json bounds all nesting, so hostile input cannot exhaust the
// stack.
const maxSkipDepth = 10000

// Decoder reads JSON text: a small scanner with schema-directed accessors
// that codecs drive field by field. Errors are sticky; after the first one
// every accessor is a no-op and End reports it. String results may share
// the decoded text's memory; OwnedString copies, for values that outlive
// the text. A Decoder keeps scratch space between texts and is not safe
// for concurrent use.
type Decoder struct {
	data string
	pos  int
	err  error
	buf  []byte // unescaping
}

// Reset starts decoding data.
func (d *Decoder) Reset(data string) {
	d.data, d.pos, d.err = data, 0, nil
}

// End checks that only whitespace follows the decoded value and returns
// the first error of the text, if any.
func (d *Decoder) End() error {
	d.space()
	if d.err == nil && d.pos < len(d.data) {
		d.Fail("unexpected data after value")
	}
	return d.err
}

// More skips whitespace and reports whether another value follows, for
// texts that hold a sequence of values, as json.Decoder reads them. It
// reports false after an error.
func (d *Decoder) More() bool {
	d.space()
	return d.err == nil && d.pos < len(d.data)
}

// Err returns the first error of the text so far.
func (d *Decoder) Err() error { return d.err }

// Fail records an error at the current offset, unless one is already
// recorded, and stops decoding the text.
func (d *Decoder) Fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("jsonwire: %s at offset %d", msg, d.pos)
	}
	d.pos = len(d.data)
}

func (d *Decoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the next non-space byte, or 0 at the end of the text.
func (d *Decoder) peek() byte {
	d.space()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *Decoder) literal(lit string) {
	if strings.HasPrefix(d.data[d.pos:], lit) {
		d.pos += len(lit)
		return
	}
	d.Fail("invalid literal")
}

// null consumes a null literal if one is next. It also reports true after
// an error, so callers stop decoding the value.
func (d *Decoder) null() bool {
	if d.peek() == 'n' {
		d.literal("null")
		return true
	}
	return d.err != nil
}

// Object opens an object value. It reports false for null and on error;
// as in json.Unmarshal, null leaves a struct unchanged and sets a pointer
// to nil.
func (d *Decoder) Object() bool {
	if d.null() {
		return false
	}
	if d.peek() != '{' {
		d.Fail("expected object")
		return false
	}
	d.pos++
	return true
}

// Member reads the key of the i-th member of the object Object opened,
// through its colon, and reports false after the closing brace or on
// error. The caller then decodes or skips the member's value.
func (d *Decoder) Member(i int) (string, bool) {
	if d.err != nil {
		return "", false
	}
	switch c := d.peek(); {
	case c == '}':
		d.pos++
		return "", false
	case i == 0:
	case c == ',':
		d.pos++
	default:
		d.Fail("expected ',' or '}' in object")
		return "", false
	}
	key, _ := d.str()
	if d.peek() != ':' {
		d.Fail("expected ':' after object key")
		return "", false
	}
	d.pos++
	return key, d.err == nil
}

// Element advances to the i-th element of the array Array opened and
// reports false after the closing bracket or on error.
func (d *Decoder) Element(i int) bool {
	if d.err != nil {
		return false
	}
	switch c := d.peek(); {
	case c == ']':
		d.pos++
		return false
	case i == 0:
	case c == ',':
		d.pos++
	default:
		d.Fail("expected ',' or ']' in array")
		return false
	}
	return true
}

// Array opens an array value. It reports false for null and on error; as
// in json.Unmarshal, null sets a slice to nil.
func (d *Decoder) Array() bool {
	if d.null() {
		return false
	}
	if d.peek() != '[' {
		d.Fail("expected array")
		return false
	}
	d.pos++
	return true
}

// String decodes a string value into *dst; null leaves it unchanged. The
// result may share the text's memory.
func (d *Decoder) String(dst *string) {
	if !d.null() {
		*dst, _ = d.str()
	}
}

// OwnedString is String for values that must not keep the text alive: the
// result never shares the text's memory.
func (d *Decoder) OwnedString(dst *string) {
	if d.null() {
		return
	}
	s, fresh := d.str()
	if !fresh {
		s = strings.Clone(s)
	}
	*dst = s
}

// Int decodes an integer value into *dst; null leaves it unchanged. A
// fraction, exponent or out-of-range value is an error, as in
// json.Unmarshal.
func (d *Decoder) Int(dst *int) {
	if d.null() {
		return
	}
	tok := d.number()
	if d.err != nil {
		return
	}
	n, err := strconv.ParseInt(tok, 10, 0)
	if err != nil {
		d.Fail("number " + tok + " is not an int")
		return
	}
	*dst = int(n)
}

// Uint32 decodes an unsigned integer value into *dst; null leaves it
// unchanged. A sign, fraction, exponent or value past 32 bits is an
// error, as in json.Unmarshal.
func (d *Decoder) Uint32(dst *uint32) {
	if d.null() {
		return
	}
	tok := d.number()
	if d.err != nil {
		return
	}
	n, err := strconv.ParseUint(tok, 10, 32)
	if err != nil {
		d.Fail("number " + tok + " is not a uint32")
		return
	}
	*dst = uint32(n)
}

// Bytes decodes a base64 string, or an array of numbers, into *dst,
// reusing its capacity, as json.Unmarshal decodes a []byte; null sets
// *dst to nil.
func (d *Decoder) Bytes(dst *[]byte) {
	if d.peek() == '[' {
		d.byteArray(dst)
		return
	}
	if d.null() {
		if d.err == nil {
			*dst = nil
		}
		return
	}
	s, _ := d.str()
	if d.err != nil {
		return
	}
	b := (*dst)[:0]
	if n := base64.StdEncoding.DecodedLen(len(s)); b == nil || cap(b) < n {
		b = make([]byte, n)
	} else {
		b = b[:n]
	}
	n, err := base64.StdEncoding.Decode(b, []byte(s))
	if err != nil {
		d.Fail("invalid base64: " + err.Error())
		return
	}
	*dst = b[:n]
}

// byteArray decodes an array of numbers into *dst, as json.Unmarshal
// decodes one into a []byte: each element a byte, null as zero.
func (d *Decoder) byteArray(dst *[]byte) {
	d.pos++
	b := (*dst)[:0]
	if b == nil {
		b = []byte{}
	}
	for i := 0; d.Element(i); i++ {
		if d.peek() == 'n' {
			d.literal("null")
			b = append(b, 0)
			continue
		}
		tok := d.number()
		if d.err != nil {
			return
		}
		n, err := strconv.ParseUint(tok, 10, 8)
		if err != nil {
			d.Fail("number " + tok + " is not a byte")
			return
		}
		b = append(b, byte(n))
	}
	if d.err == nil {
		*dst = b
	}
}

// Raw consumes and validates one value of any type and returns its text,
// without the whitespace around it.
func (d *Decoder) Raw() string {
	d.space()
	start := d.pos
	d.skip(0)
	if d.err != nil {
		return ""
	}
	return d.data[start:d.pos]
}

// FoldKey returns the key among keys that key matches under the case
// folding json.Unmarshal applies to a key that matches no field exactly,
// or "" if none does.
func FoldKey(key string, keys []string) string {
	for _, k := range keys {
		if strings.EqualFold(key, k) {
			return k
		}
	}
	return ""
}

// Bool decodes a boolean value into *dst; null leaves it unchanged.
func (d *Decoder) Bool(dst *bool) {
	switch d.peek() {
	case 't':
		d.literal("true")
		*dst = d.err == nil
	case 'f':
		d.literal("false")
		*dst = false
	default:
		if !d.null() {
			d.Fail("expected boolean")
		}
	}
}

// Skip consumes and validates one value of any type.
func (d *Decoder) Skip() {
	d.skip(0)
}

func (d *Decoder) skip(depth int) {
	if depth > maxSkipDepth {
		d.Fail("value nested too deeply")
		return
	}
	switch c := d.peek(); {
	case c == '{':
		d.pos++
		for i := 0; ; i++ {
			if _, ok := d.Member(i); !ok {
				return
			}
			d.skip(depth + 1)
		}
	case c == '[':
		d.pos++
		for i := 0; d.Element(i); i++ {
			d.skip(depth + 1)
		}
	case c == '"':
		d.str()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		d.number()
	default:
		d.Fail("expected value")
	}
}

// number consumes a JSON number and returns its text.
func (d *Decoder) number() string {
	d.space()
	start := d.pos
	if d.pos < len(d.data) && d.data[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.data) && d.data[d.pos] == '0':
		d.pos++
	case d.digits() == 0:
		d.Fail("invalid number")
		return ""
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if d.digits() == 0 {
			d.Fail("invalid number")
			return ""
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if d.digits() == 0 {
			d.Fail("invalid number")
			return ""
		}
	}
	return d.data[start:d.pos]
}

func (d *Decoder) digits() int {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

// stringStop marks the bytes that end a run of plain string content: the
// closing quote, a backslash, control bytes, and the first byte of a
// multi-byte sequence, which is checked for valid UTF-8.
var stringStop = func() (t [256]bool) {
	for c := range t {
		t[c] = c < ' ' || c == '"' || c == '\\' || c >= utf8.RuneSelf
	}
	return t
}()

// str consumes a string token. Without escapes or invalid UTF-8 the result
// is a substring of the text; otherwise it is unescaped into fresh memory
// and fresh is true.
func (d *Decoder) str() (s string, fresh bool) {
	if d.peek() != '"' {
		d.Fail("expected string")
		return "", false
	}
	start := d.pos + 1
	for i := start; i < len(d.data); {
		c := d.data[i]
		if !stringStop[c] {
			i++
			continue
		}
		if c == '"' {
			d.pos = i + 1
			return d.data[start:i], false
		}
		if c < utf8.RuneSelf {
			return d.unquote(start, i), true
		}
		r, size := utf8.DecodeRuneInString(d.data[i:])
		if r == utf8.RuneError && size == 1 {
			return d.unquote(start, i), true
		}
		i += size
	}
	d.pos = len(d.data)
	d.Fail("unterminated string")
	return "", false
}

// unquote finishes a string token whose plain prefix ends at i, decoding
// escapes and replacing each invalid UTF-8 byte with U+FFFD as
// json.Unmarshal does.
func (d *Decoder) unquote(start, i int) string {
	b := append(d.buf[:0], d.data[start:i]...)
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			d.buf = b
			return string(b)
		case c == '\\':
			if i+1 >= len(d.data) {
				d.pos = i
				d.Fail("unterminated string")
				return ""
			}
			switch e := d.data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.data[i:])
				if r < 0 {
					d.pos = i
					d.Fail(`invalid \u escape`)
					return ""
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A valid pair consumes both escapes; a lone surrogate
					// becomes U+FFFD and whatever follows is read on its own.
					if dec := utf16.DecodeRune(r, hex4(d.data[i:])); dec != unicode.ReplacementChar {
						r = dec
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.pos = i
				d.Fail("invalid escape")
				return ""
			}
			i += 2
		case c < ' ':
			d.pos = i
			d.Fail("control character in string")
			return ""
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(d.data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.pos = len(d.data)
	d.Fail("unterminated string")
	return ""
}

// hex4 decodes the \uXXXX escape at the start of s, or returns -1.
func hex4(s string) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range []byte(s[2:6]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
