package yaml

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// DiffReference decodes data with DecodeAll and with the reference decoder
// (reference_test.go) and describes the first difference between them:
// document count, value types and values, key order, key positions,
// mapping starts, and error line, column and message. It returns "" when
// the two agree. The one accepted difference is the nesting bound, which
// the reference lacks.
func DiffReference(data []byte) string {
	got, gotErr := DecodeAll(data)
	want, wantErr := refDecodeAll(data)
	if isDepthError(gotErr) && deepEnough(data) {
		return ""
	}
	if gotErr != nil || wantErr != nil {
		return diffErrors(gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d documents, reference %d", len(got), len(want))
	}
	for i := range want {
		if d := diffValue(fmt.Sprintf("doc[%d]", i), got[i], want[i]); d != "" {
			return d
		}
	}
	return ""
}

func isDepthError(err error) bool {
	var se *SyntaxError
	return errors.As(err, &se) && strings.HasPrefix(se.Msg, "collections nested more than")
}

// deepEnough reports whether data has enough lines and brackets to nest
// past maxDepth at all, so the bound cannot excuse a spurious error.
func deepEnough(data []byte) bool {
	s := string(data)
	return strings.Count(s, "\n")+strings.Count(s, "[")+strings.Count(s, "{")+1 > maxDepth
}

func diffErrors(got, want error) string {
	if got == nil || want == nil {
		return fmt.Sprintf("error %v, reference error %v", got, want)
	}
	var g, w *SyntaxError
	if !errors.As(got, &g) || !errors.As(want, &w) {
		return fmt.Sprintf("error %T %v, reference error %T %v", got, got, want, want)
	}
	if *g != *w {
		return fmt.Sprintf("error %d:%d %q, reference error %d:%d %q", g.Line, g.Col, g.Msg, w.Line, w.Col, w.Msg)
	}
	return ""
}

func diffValue(path string, got, want any) string {
	switch w := want.(type) {
	case *Map:
		g, ok := got.(*Map)
		if !ok {
			return fmt.Sprintf("%s: %T, reference *Map", path, got)
		}
		if g.Len() != w.Len() {
			return fmt.Sprintf("%s: %d keys %q, reference %d keys %q", path, g.Len(), g.Keys(), w.Len(), w.Keys())
		}
		if g.Start() != w.Start() {
			return fmt.Sprintf("%s: starts at %v, reference %v", path, g.Start(), w.Start())
		}
		for i := 0; i < w.Len(); i++ {
			gk, gv := g.At(i)
			wk, wv := w.At(i)
			if gk != wk {
				return fmt.Sprintf("%s: key %d is %q, reference %q", path, i, gk, wk)
			}
			if g.KeyPos(gk) != w.KeyPos(wk) {
				return fmt.Sprintf("%s: key %q at %v, reference %v", path, gk, g.KeyPos(gk), w.KeyPos(wk))
			}
			if d := diffValue(path+"."+gk, gv, wv); d != "" {
				return d
			}
		}
		return ""
	case []any:
		g, ok := got.([]any)
		if !ok || (g == nil) != (w == nil) || len(g) != len(w) {
			return fmt.Sprintf("%s: %T %#v, reference %T of %d", path, got, got, want, len(w))
		}
		for i := range w {
			if d := diffValue(fmt.Sprintf("%s[%d]", path, i), g[i], w[i]); d != "" {
				return d
			}
		}
		return ""
	case float64:
		if g, ok := got.(float64); !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("%s: %T %#v, reference float64 %v", path, got, got, w)
		}
		return ""
	default:
		if got != want {
			return fmt.Sprintf("%s: %T %#v, reference %T %#v", path, got, got, want, want)
		}
		return ""
	}
}
