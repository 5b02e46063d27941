package journal

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The record codec writes and reads journal records without reflection.
// The encoder produces exactly the bytes json.Marshal writes for the same
// value — field order, omitempty, HTML-safe escaping, U+2028/U+2029,
// invalid UTF-8 as \ufffd — so the on-disk and wire formats are
// encoding/json's, and journals written before the codec existed replay
// unchanged. The decoder reads any JSON text json.Unmarshal accepts for
// these types (whitespace, escapes, unknown keys, nulls) and returns an
// error for malformed input instead of misreading it. Keys match exactly;
// unlike json.Unmarshal it does not fold case, and a repeated key replaces
// the earlier value instead of merging into it — neither occurs in
// anything an encoder writes.

// appendRecord appends rec's JSON encoding to dst.
func appendRecord(dst []byte, rec *Record) []byte {
	dst = append(dst, `{"entity":`...)
	dst = AppendString(dst, rec.Entity)
	dst = AppendField(dst, "digest", rec.Digest)
	dst = AppendField(dst, "err", rec.Err)
	if rec.Report != nil {
		dst = append(dst, `,"report":`...)
		dst = AppendReport(dst, rec.Report)
	}
	return append(dst, '}')
}

// AppendReport appends rr's JSON encoding to dst, byte-identical to
// json.Marshal(rr).
func AppendReport(dst []byte, rr *ReportRecord) []byte {
	dst = append(dst, `{"entity":`...)
	dst = AppendString(dst, rr.Entity)
	dst = append(dst, `,"type":`...)
	dst = AppendString(dst, rr.Type)
	dst = append(dst, `,"results":`...)
	if rr.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range rr.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendResult(dst, &rr.Results[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendResult(dst []byte, r *ResultRecord) []byte {
	dst = append(dst, '{')
	if r.Entity != "" {
		dst = append(dst, `"entity":`...)
		dst = append(AppendString(dst, r.Entity), ',')
	}
	if r.ManifestEntity != "" {
		dst = append(dst, `"manifest_entity":`...)
		dst = append(AppendString(dst, r.ManifestEntity), ',')
	}
	dst = append(dst, `"status":`...)
	dst = strconv.AppendInt(dst, int64(r.Status), 10)
	dst = AppendField(dst, "message", r.Message)
	dst = AppendField(dst, "detail", r.Detail)
	dst = AppendField(dst, "file", r.File)
	if rule := r.Rule; rule != nil {
		dst = append(dst, `,"rule":{"name":`...)
		dst = AppendString(dst, rule.Name)
		dst = AppendField(dst, "type", rule.Type)
		if len(rule.Tags) > 0 {
			dst = append(dst, `,"tags":[`...)
			for i, tag := range rule.Tags {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = AppendString(dst, tag)
			}
			dst = append(dst, ']')
		}
		dst = AppendField(dst, "severity", rule.Severity)
		dst = AppendField(dst, "suggested_action", rule.SuggestedAction)
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// AppendField appends `,"key":` and the quoted value for a non-empty
// value — what json.Marshal writes for an omitempty string field that is
// not the first in its object. key must not need escaping.
func AppendField(dst []byte, key, value string) []byte {
	if value == "" {
		return dst
	}
	dst = append(dst, ',', '"')
	dst = append(dst, key...)
	dst = append(dst, '"', ':')
	return AppendString(dst, value)
}

const hexDigits = "0123456789abcdef"

// plainASCII marks the ASCII bytes json.Marshal copies through unescaped:
// everything printable except '"', '\\' and the HTML-sensitive '<', '>'
// and '&'.
var plainASCII = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// AppendString appends s as a JSON string exactly as json.Marshal quotes
// it, copying runs of bytes that need no escape in one append.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if plainASCII[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
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
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// maxSkipDepth bounds the nesting of skipped unknown values, as
// encoding/json bounds all nesting, so hostile input cannot exhaust the
// stack.
const maxSkipDepth = 10000

// Decoder reads one JSON text of the record schema: a small scanner with
// schema-directed accessors that callers drive field by field. Errors are
// sticky; after the first one every accessor is a no-op and End reports
// it. Strings inside a decoded report may share the decoded text's memory;
// OwnedString copies, for values that outlive the report. A Decoder keeps
// scratch space between texts and is not safe for concurrent use.
type Decoder struct {
	data string
	pos  int
	err  error

	// Scratch reused across reports: Report decodes a report's results,
	// rules and tags here, then copies each into one exact-size block.
	results []ResultRecord
	ruleOf  []int // per result: its rule's index in rules, or -1
	rules   []RuleRecord
	tagsOf  []tagSpan // per rule: its tags in tags
	tags    []string
	buf     []byte // unescaping
}

// tagSpan locates one rule's tags in the Decoder's tag scratch; set
// distinguishes an empty list from an absent or null one.
type tagSpan struct {
	lo, hi int
	set    bool
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
		d.fail("unexpected data after value")
	}
	return d.err
}

func (d *Decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("journal: decode: %s at offset %d", msg, d.pos)
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
	d.fail("invalid literal")
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
		d.fail("expected object")
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
		d.fail("expected ',' or '}' in object")
		return "", false
	}
	key, _ := d.str()
	if d.peek() != ':' {
		d.fail("expected ':' after object key")
		return "", false
	}
	d.pos++
	return key, d.err == nil
}

// element advances to the i-th element of an open array and reports false
// after the closing bracket or on error.
func (d *Decoder) element(i int) bool {
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
		d.fail("expected ',' or ']' in array")
		return false
	}
	return true
}

// openArray opens an array value. It reports false for null and on error.
func (d *Decoder) openArray() bool {
	if d.null() {
		return false
	}
	if d.peek() != '[' {
		d.fail("expected array")
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
		d.fail("number " + tok + " is not an int")
		return
	}
	*dst = int(n)
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
			d.fail("expected boolean")
		}
	}
}

// Skip consumes and validates one value of any type.
func (d *Decoder) Skip() {
	d.skip(0)
}

func (d *Decoder) skip(depth int) {
	if depth > maxSkipDepth {
		d.fail("value nested too deeply")
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
		for i := 0; d.element(i); i++ {
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
		d.fail("expected value")
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
		d.fail("invalid number")
		return ""
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if d.digits() == 0 {
			d.fail("invalid number")
			return ""
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if d.digits() == 0 {
			d.fail("invalid number")
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
		d.fail("expected string")
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
	d.fail("unterminated string")
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
				d.fail("unterminated string")
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
					d.fail(`invalid \u escape`)
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
				d.fail("invalid escape")
				return ""
			}
			i += 2
		case c < ' ':
			d.pos = i
			d.fail("control character in string")
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
	d.fail("unterminated string")
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

// record decodes one journal record payload.
func (d *Decoder) record(data string) (Record, error) {
	d.Reset(data)
	var rec Record
	if d.Object() {
		for i := 0; ; i++ {
			key, ok := d.Member(i)
			if !ok {
				break
			}
			switch key {
			case "entity":
				d.OwnedString(&rec.Entity)
			case "digest":
				d.OwnedString(&rec.Digest)
			case "err":
				d.OwnedString(&rec.Err)
			case "report":
				d.Report(&rec.Report)
			default:
				d.Skip()
			}
		}
	}
	return rec, d.End()
}

// Report decodes a report value into *dst; null sets it to nil. The
// report's results, rules and tags are each allocated as one block.
func (d *Decoder) Report(dst **ReportRecord) {
	if !d.Object() {
		if d.err == nil {
			*dst = nil
		}
		return
	}
	rr := &ReportRecord{}
	for i := 0; ; i++ {
		key, ok := d.Member(i)
		if !ok {
			break
		}
		switch key {
		case "entity":
			d.String(&rr.Entity)
		case "type":
			d.String(&rr.Type)
		case "results":
			d.resultList(rr)
		default:
			d.Skip()
		}
	}
	if d.err == nil {
		*dst = rr
	}
}

// resultList decodes a results array into rr.Results.
func (d *Decoder) resultList(rr *ReportRecord) {
	if !d.openArray() {
		if d.err == nil {
			rr.Results = nil
		}
		return
	}
	d.results, d.ruleOf, d.rules, d.tagsOf, d.tags = d.results[:0], d.ruleOf[:0], d.rules[:0], d.tagsOf[:0], d.tags[:0]
	for i := 0; d.element(i); i++ {
		d.results = append(d.results, ResultRecord{})
		d.ruleOf = append(d.ruleOf, -1)
		d.result(len(d.results) - 1)
	}
	if d.err == nil {
		rr.Results = d.resultBlock()
	}
	// Drop the scratch's references so it does not keep this text alive.
	clear(d.results)
	clear(d.rules)
	clear(d.tags)
}

// resultBlock copies the decoded results, rules and tags out of the
// scratch into one block each and links them.
func (d *Decoder) resultBlock() []ResultRecord {
	results := make([]ResultRecord, len(d.results))
	copy(results, d.results)
	var rules []RuleRecord
	if len(d.rules) > 0 {
		rules = make([]RuleRecord, len(d.rules))
		copy(rules, d.rules)
	}
	tags := make([]string, len(d.tags))
	copy(tags, d.tags)
	for k, span := range d.tagsOf {
		if span.set {
			rules[k].Tags = tags[span.lo:span.hi:span.hi]
		}
	}
	for k, ri := range d.ruleOf {
		if ri >= 0 {
			results[k].Rule = &rules[ri]
		}
	}
	return results
}

// result decodes one element of a results array into d.results[k].
func (d *Decoder) result(k int) {
	if !d.Object() {
		return
	}
	r := &d.results[k] // only d.rules and d.tags grow while it is decoded
	for i := 0; ; i++ {
		key, ok := d.Member(i)
		if !ok {
			return
		}
		switch key {
		case "entity":
			d.String(&r.Entity)
		case "manifest_entity":
			d.String(&r.ManifestEntity)
		case "status":
			d.Int(&r.Status)
		case "message":
			d.String(&r.Message)
		case "detail":
			d.String(&r.Detail)
		case "file":
			d.String(&r.File)
		case "rule":
			d.ruleOf[k] = d.rule()
		default:
			d.Skip()
		}
	}
}

// rule decodes a rule value into the scratch and returns its index, or -1
// for null.
func (d *Decoder) rule() int {
	if !d.Object() {
		return -1
	}
	k := len(d.rules)
	d.rules = append(d.rules, RuleRecord{})
	d.tagsOf = append(d.tagsOf, tagSpan{})
	rule := &d.rules[k] // only d.tags grows while it is decoded
	for i := 0; ; i++ {
		key, ok := d.Member(i)
		if !ok {
			return k
		}
		switch key {
		case "name":
			d.String(&rule.Name)
		case "type":
			d.String(&rule.Type)
		case "tags":
			d.tagList(k)
		case "severity":
			d.String(&rule.Severity)
		case "suggested_action":
			d.String(&rule.SuggestedAction)
		default:
			d.Skip()
		}
	}
}

// tagList decodes a tags array for scratch rule k into the tag scratch.
func (d *Decoder) tagList(k int) {
	if !d.openArray() {
		d.tagsOf[k] = tagSpan{}
		return
	}
	lo := len(d.tags)
	for i := 0; d.element(i); i++ {
		var tag string
		d.String(&tag)
		d.tags = append(d.tags, tag)
	}
	d.tagsOf[k] = tagSpan{lo: lo, hi: len(d.tags), set: true}
}
