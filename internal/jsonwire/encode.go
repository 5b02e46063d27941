// Package jsonwire holds the quoting and scanning primitives of the
// hand-written JSON codecs that frames, journal records, shard-stream
// lines and shard request lines share. The encoders built on it write
// exactly the bytes encoding/json writes for the same value — field
// order, omitempty, HTML-safe escaping, U+2028/U+2029, invalid UTF-8 as
// \ufffd — so every wire and on-disk format stays encoding/json's. The
// decoders read any JSON text json.Unmarshal accepts for their types
// (whitespace, escapes, unknown keys, nulls) and return an error for
// malformed input instead of misreading it. Keys match exactly unless a
// codec also tries FoldKey, as json.Unmarshal folds case (the frame and
// request-line codecs do; the journal and stream-record codecs do not),
// and a repeated key replaces the earlier value instead of merging into
// it — neither occurs in anything an encoder writes.
//
// The package knows no schema: each codec drives a Decoder field by field
// and appends its fields with AppendString and AppendField.
package jsonwire

import "unicode/utf8"

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
