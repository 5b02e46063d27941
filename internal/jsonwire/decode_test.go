package jsonwire

import (
	"encoding/json"
	"testing"
)

// TestFoldKeyMatchesUnmarshal checks FoldKey against the case folding
// json.Unmarshal applies to a key that matches no field exactly,
// including the non-ASCII runes that fold to ASCII letters.
func TestFoldKeyMatchesUnmarshal(t *testing.T) {
	type schema struct {
		Type string `json:"type"`
		Kind string `json:"kind"`
		Size string `json:"size"`
	}
	keys := []string{"type", "kind", "size"}
	kelvin, longS, dotlessI := string(rune(0x212a)), string(rune(0x017f)), string(rune(0x0131))
	for _, key := range []string{
		"type", "TYPE", "tYpE", "kind", "KIND", kelvin + "ind", kelvin + "IND", longS + "ize", longS + "IZE",
		"s" + dotlessI + "ze", "typ", "types", "ty pe", "ty\x00pe", "", "\xff", "k" + kelvin,
	} {
		name, err := json.Marshal(key)
		if err != nil {
			t.Fatal(err)
		}
		var v schema
		if err := json.Unmarshal([]byte(`{`+string(name)+`:"x"}`), &v); err != nil {
			t.Fatal(err)
		}
		want := ""
		switch {
		case v.Type != "":
			want = "type"
		case v.Kind != "":
			want = "kind"
		case v.Size != "":
			want = "size"
		}
		if got := FoldKey(key, keys); got != want {
			t.Errorf("FoldKey(%q) = %q, json.Unmarshal sets %q", key, got, want)
		}
	}
}
