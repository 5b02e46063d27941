package yaml_test

import (
	"sort"
	"testing"

	"configvalidator/internal/rules"
	"configvalidator/internal/yaml"
)

// BenchmarkDecodeLibrary decodes the built-in rule library — the manifest
// and the 11 rule files — once per op: the decoder's share of resolving
// the library in a one-shot run.
func BenchmarkDecodeLibrary(b *testing.B) {
	files := rules.Files()
	names := make([]string, 0, len(files))
	size := 0
	for name, content := range files {
		names = append(names, name)
		size += len(content)
	}
	sort.Strings(names)
	data := make([][]byte, len(names))
	for i, name := range names {
		data[i] = []byte(files[name])
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range data {
			if _, err := yaml.DecodeAll(d); err != nil {
				b.Fatal(err)
			}
		}
	}
}
