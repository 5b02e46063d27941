package yaml

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeScalars(t *testing.T) {
	tests := []struct {
		name string
		in   any
		want string
	}{
		{"string", "hello", "hello\n"},
		{"empty string", "", "\"\"\n"},
		{"numeric string quoted", "42", "\"42\"\n"},
		{"bool-like string quoted", "true", "\"true\"\n"},
		{"int", int64(7), "7\n"},
		{"plain int", 7, "7\n"},
		{"float", 2.5, "2.5\n"},
		{"bool", true, "true\n"},
		{"nil", nil, "null\n"},
		{"leading dash quoted", "-x", "\"-x\"\n"},
		{"hash string quoted", "#tag", "\"#tag\"\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Encode(tt.in)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tt.want {
				t.Errorf("Encode(%#v) = %q, want %q", tt.in, got, tt.want)
			}
		})
	}
}

func TestEncodeMapOrderPreserved(t *testing.T) {
	m := NewMap()
	m.Set("zebra", int64(1))
	m.Set("alpha", int64(2))
	m.Set("mid", "v")
	out, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	want := "zebra: 1\nalpha: 2\nmid: v\n"
	if string(out) != want {
		t.Errorf("got %q, want %q", out, want)
	}
}

func TestEncodeGoMapSortedKeys(t *testing.T) {
	out, err := Encode(map[string]any{"b": int64(2), "a": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "a: 1\nb: 2\n" {
		t.Errorf("got %q", out)
	}
}

func TestEncodeNested(t *testing.T) {
	inner := NewMap()
	inner.Set("port", int64(443))
	inner.Set("protocols", []any{"TLSv1.2", "TLSv1.3"})
	outer := NewMap()
	outer.Set("server", inner)
	outer.Set("tags", []string{"#ssl"})
	out, err := Encode(outer)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"server:",
		"  port: 443",
		"  protocols:",
		"    - TLSv1.2",
		"    - TLSv1.3",
		"tags:",
		"  - \"#ssl\"",
		"",
	}, "\n")
	if string(out) != want {
		t.Errorf("got:\n%s\nwant:\n%s", out, want)
	}
}

func TestEncodeUnsupportedType(t *testing.T) {
	if _, err := Encode(struct{ X int }{1}); err == nil {
		t.Error("expected error for unsupported type")
	}
}

func TestEncodeDecodeRoundTripFixed(t *testing.T) {
	m := NewMap()
	m.Set("config_name", "PermitRootLogin")
	m.Set("tags", []any{"#security", "#cis"})
	m.Set("preferred_value", []any{"no"})
	m.Set("threshold", int64(10))
	m.Set("ratio", 0.5)
	m.Set("enabled", true)
	m.Set("note", nil)
	sub := NewMap()
	sub.Set("a b", "c: d")
	sub.Set("empty", []any{})
	// A quote or bracket inside a key must not hide the key's colon.
	for _, k := range []string{`0"`, "it's", "a[b", "x}"} {
		sub.Set(k, k)
	}
	m.Set("nested", sub)

	enc, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(enc)
	if err != nil {
		t.Fatalf("re-decode of %q: %v", enc, err)
	}
	bm, ok := back.(*Map)
	if !ok || !m.Equal(bm) {
		t.Errorf("round trip mismatch:\nencoded:\n%s\ngot: %#v", enc, back)
	}
}

// randomValue builds a random YAML-representable value for property testing.
func randomValue(r *rand.Rand, depth int) any {
	if depth <= 0 {
		return randomScalar(r)
	}
	switch r.Intn(4) {
	case 0:
		n := r.Intn(4)
		seq := make([]any, n)
		for i := range seq {
			seq[i] = randomValue(r, depth-1)
		}
		return seq
	case 1:
		m := NewMap()
		n := r.Intn(4)
		for i := 0; i < n; i++ {
			m.Set(randomKey(r, i), randomValue(r, depth-1))
		}
		return m
	default:
		return randomScalar(r)
	}
}

func randomScalar(r *rand.Rand) any {
	switch r.Intn(5) {
	case 0:
		return int64(r.Intn(2000) - 1000)
	case 1:
		return r.Intn(2) == 0
	case 2:
		return nil
	case 3:
		return float64(r.Intn(1000)) / 4
	default:
		return randomString(r)
	}
}

const keyAlphabet = "abcdefghijklmnopqrstuvwxyz_-.#/: []{}'\"!@"

func randomString(r *rand.Rand) string {
	n := r.Intn(12)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(keyAlphabet[r.Intn(len(keyAlphabet))])
	}
	return b.String()
}

func randomKey(r *rand.Rand, i int) string {
	// Keys must be unique within a map; suffix with the index.
	base := "abcdefghij"[r.Intn(10)]
	return string(base) + "_" + string(rune('0'+i))
}

// TestQuickEncodeDecodeRoundTrip verifies Decode(Encode(v)) == v for random
// values — the central property of the YAML subset.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		v := randomValue(r, 3)
		enc, err := Encode(v)
		if err != nil {
			t.Fatalf("Encode(%#v): %v", v, err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode round trip of %#v failed: %v\nencoded:\n%s", v, err, enc)
		}
		if !valueEqual(normalizeEmpty(v), normalizeEmpty(back)) {
			t.Fatalf("round trip mismatch:\noriginal: %#v\ndecoded:  %#v\nencoded:\n%s", v, back, enc)
		}
	}
}

// normalizeEmpty maps empty sequences to a canonical non-nil form so that
// DeepEqual-style comparison treats []any{} uniformly.
func normalizeEmpty(v any) any {
	switch val := v.(type) {
	case []any:
		out := make([]any, len(val))
		for i := range val {
			out[i] = normalizeEmpty(val[i])
		}
		return out
	case *Map:
		m := NewMap()
		for _, k := range val.Keys() {
			inner, _ := val.Get(k)
			m.Set(k, normalizeEmpty(inner))
		}
		return m
	default:
		return v
	}
}

// TestQuickScalarStringRoundTrip uses testing/quick to check that any string
// survives encode/decode unchanged when used as a mapping value.
func TestQuickScalarStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if !validRoundTripString(s) {
			return true // outside the supported subset (control chars etc.)
		}
		m := NewMap()
		m.Set("k", s)
		enc, err := Encode(m)
		if err != nil {
			return false
		}
		back, err := Decode(enc)
		if err != nil {
			return false
		}
		bm, ok := back.(*Map)
		if !ok {
			return false
		}
		got, _ := bm.Get("k")
		return got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// validRoundTripString reports whether s is within the subset the encoder
// guarantees to round trip (printable ASCII plus \n and \t via quoting).
func validRoundTripString(s string) bool {
	for _, r := range s {
		if r == '\n' || r == '\t' {
			continue
		}
		if r < 0x20 || r == 0x7f || r > 0x7e {
			return false
		}
	}
	return true
}

func TestMapOperations(t *testing.T) {
	m := NewMap()
	if m.Len() != 0 {
		t.Error("new map should be empty")
	}
	m.Set("a", int64(1))
	m.Set("b", int64(2))
	m.Set("a", int64(3)) // overwrite keeps position
	if got := m.Keys(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("keys = %v", got)
	}
	if v, _ := intAt(m, "a"); v != 3 {
		t.Errorf("a = %v", v)
	}
	if k, v := m.At(1); k != "b" || v != int64(2) {
		t.Errorf("At(1) = %q, %v", k, v)
	}
	// Past 16 keys lookups switch from a scan to an index; both must agree
	// with insertion order, and an overwrite must still keep its slot.
	for i := 0; i < 40; i++ {
		m.Set(fmt.Sprintf("k%02d", i), i)
	}
	m.Set("k05", "again")
	m.Set("b", int64(4))
	if m.Len() != 42 {
		t.Fatalf("len = %d, want 42", m.Len())
	}
	for i := 0; i < m.Len(); i++ {
		k, v := m.At(i)
		if got, ok := m.Get(k); !ok || got != v {
			t.Errorf("Get(%q) = %v, %v; At(%d) holds %v", k, got, ok, i, v)
		}
	}
	if k, v := m.At(7); k != "k05" || v != "again" {
		t.Errorf("At(7) = %q, %v", k, v)
	}
	if v, _ := intAt(m, "b"); v != 4 || m.Has("missing") {
		t.Errorf("b = %v, has missing = %v", v, m.Has("missing"))
	}
}

func TestMapEqual(t *testing.T) {
	a := NewMap()
	a.Set("x", []any{int64(1), "s"})
	b := NewMap()
	b.Set("x", []any{int64(1), "s"})
	if !a.Equal(b) {
		t.Error("equal maps reported unequal")
	}
	b.Set("y", nil)
	if a.Equal(b) {
		t.Error("maps with different sizes reported equal")
	}
}

func TestMapNilReceiverSafe(t *testing.T) {
	var m *Map
	if m.Len() != 0 || m.Keys() != nil || m.Has("x") {
		t.Error("nil map accessors should be zero-valued")
	}
	if _, ok := m.Get("x"); ok {
		t.Error("nil map Get should report absent")
	}
}
