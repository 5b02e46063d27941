package yaml

import (
	"testing"
)

// FuzzDecode hammers the YAML decoder with arbitrary bytes — CVL rule
// files arrive over HTTP (/v1/lint) and from user repositories, so the
// decoder must never panic and every accepted document must survive an
// encode/decode round trip.
//
//	go test -fuzz FuzzDecode -fuzztime 10s ./internal/yaml/
func FuzzDecode(f *testing.F) {
	for _, seed := range []string{
		"",
		"key: value\n",
		"rules:\n  - name: a\n    preferred_value: [x, y]\n",
		"a: 1\nb:\n  - 2\n  - 3\nc:\n  d: e\n",
		"name: \"quoted: colon\"\nnum: -3.5\nflag: true\n",
		"block: |\n  line one\n  line two\n",
		"folded: >\n  joined\n  words\n",
		"- one\n- two\n-\n",
		"empty:\nnull_value: ~\n",
		"deep:\n  a:\n    b:\n      c: [1, {d: 2}]\n",
		"tabs:\tafter\n",
		"x: [unclosed\n",
		"---\ndoc: 1\n---\ndoc: 2\n",
		"key: value # trailing comment\n# full comment\n",
		"empty: ''\n",
		"quote: \"\\\"\"\n",
		"trailing: \"abc\\",
		"unterminated: 'abc\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(data)
		if err == nil {
			// Accepted input must re-encode, and the re-encoded form must
			// still be accepted — no one-way documents.
			out, err := Encode(v)
			if err != nil {
				t.Fatalf("decoded value does not encode: %v", err)
			}
			if _, err := Decode(out); err != nil {
				t.Fatalf("re-encoded document rejected: %v\n%s", err, out)
			}
		}
		if _, err := DecodeAll(data); err != nil {
			return
		}
	})
}
