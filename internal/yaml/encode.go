package yaml

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Encode renders a value as a block-style YAML document. Supported value
// types are the ones produced by Decode (*Map, []any, string, int64, int,
// float64, bool, nil) plus map[string]any (emitted with sorted keys).
func Encode(v any) ([]byte, error) {
	var b strings.Builder
	if err := encodeValue(&b, v, 0, true); err != nil {
		return nil, err
	}
	out := b.String()
	if out != "" && !strings.HasSuffix(out, "\n") {
		out += "\n"
	}
	return []byte(out), nil
}

func encodeValue(b *strings.Builder, v any, indent int, topLevel bool) error {
	switch val := v.(type) {
	case nil:
		b.WriteString("null\n")
	case *Map:
		if val.Len() == 0 {
			b.WriteString("{}\n")
			return nil
		}
		return encodeMapEntries(b, val.Keys(), func(k string) any {
			out, _ := val.Get(k)
			return out
		}, indent)
	case map[string]any:
		if len(val) == 0 {
			b.WriteString("{}\n")
			return nil
		}
		keys := make([]string, 0, len(val))
		for k := range val {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return encodeMapEntries(b, keys, func(k string) any { return val[k] }, indent)
	case []any:
		if len(val) == 0 {
			b.WriteString("[]\n")
			return nil
		}
		for _, item := range val {
			writeIndent(b, indent)
			b.WriteString("-")
			if err := encodeInlineOrNested(b, item, indent); err != nil {
				return err
			}
		}
	case []string:
		anyVals := make([]any, len(val))
		for i, s := range val {
			anyVals[i] = s
		}
		return encodeValue(b, anyVals, indent, topLevel)
	default:
		s, err := scalarString(v)
		if err != nil {
			return err
		}
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return nil
}

func encodeMapEntries(b *strings.Builder, keys []string, get func(string) any, indent int) error {
	for _, k := range keys {
		writeIndent(b, indent)
		b.WriteString(quoteKey(k))
		b.WriteString(":")
		if err := encodeInlineOrNested(b, get(k), indent); err != nil {
			return err
		}
	}
	return nil
}

// encodeInlineOrNested writes either " scalar\n" on the current line or a
// newline followed by a nested block.
func encodeInlineOrNested(b *strings.Builder, v any, indent int) error {
	switch val := v.(type) {
	case *Map:
		if val.Len() == 0 {
			b.WriteString(" {}\n")
			return nil
		}
		b.WriteByte('\n')
		return encodeValue(b, val, indent+2, false)
	case map[string]any:
		if len(val) == 0 {
			b.WriteString(" {}\n")
			return nil
		}
		b.WriteByte('\n')
		return encodeValue(b, val, indent+2, false)
	case []any:
		if len(val) == 0 {
			b.WriteString(" []\n")
			return nil
		}
		b.WriteByte('\n')
		return encodeValue(b, val, indent+2, false)
	case []string:
		anyVals := make([]any, len(val))
		for i, s := range val {
			anyVals[i] = s
		}
		return encodeInlineOrNested(b, anyVals, indent)
	default:
		s, err := scalarString(v)
		if err != nil {
			return err
		}
		b.WriteByte(' ')
		b.WriteString(s)
		b.WriteByte('\n')
		return nil
	}
}

func scalarString(v any) (string, error) {
	switch val := v.(type) {
	case nil:
		return "null", nil
	case string:
		return quoteIfNeeded(val), nil
	case bool:
		return strconv.FormatBool(val), nil
	case int:
		return strconv.Itoa(val), nil
	case int64:
		return strconv.FormatInt(val, 10), nil
	case float64:
		s := strconv.FormatFloat(val, 'g', -1, 64)
		// Keep a decimal point so the value re-decodes as a float.
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s, nil
	default:
		return "", fmt.Errorf("yaml: cannot encode value of type %T", v)
	}
}

// quoteKey quotes a mapping key like quoteIfNeeded, and also when it holds
// a quote or bracket anywhere: those open a quoted or nested run in the
// decoder's search for the key's colon.
func quoteKey(k string) string {
	if strings.ContainsAny(k, "'\"[]{}") {
		return strconv.Quote(k)
	}
	return quoteIfNeeded(k)
}

// quoteIfNeeded wraps s in double quotes when emitting it plain would change
// its meaning on re-parse.
func quoteIfNeeded(s string) string {
	if s == "" {
		return `""`
	}
	if needsQuoting(s) {
		return strconv.Quote(s)
	}
	return s
}

func needsQuoting(s string) bool {
	switch s {
	case "null", "Null", "NULL", "~", "true", "True", "TRUE", "false", "False", "FALSE":
		return true
	}
	if s != strings.TrimSpace(s) {
		return true
	}
	if looksNumeric(s) {
		if _, err := strconv.ParseInt(s, 0, 64); err == nil {
			return true
		}
		if _, err := strconv.ParseFloat(s, 64); err == nil {
			return true
		}
	}
	switch s[0] {
	case '[', '{', ']', '}', '#', '&', '*', '!', '|', '>', '\'', '"', '%', '@', '`', '-', '?', ':', ',':
		return true
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\n' || c == '\t' {
			return true
		}
		if c == ':' && (i+1 == len(s) || s[i+1] == ' ') {
			return true
		}
		if c == '#' && i > 0 && s[i-1] == ' ' {
			return true
		}
	}
	return false
}

func writeIndent(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		b.WriteByte(' ')
	}
}
