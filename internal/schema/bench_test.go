package schema

import (
	"strconv"
	"strings"
	"testing"
)

func benchTable(rows int) *Table {
	t := New("bench", "device", "dir", "fstype", "options", "dump", "pass")
	for i := 0; i < rows; i++ {
		_ = t.AddRow("/dev/sda"+strconv.Itoa(i), "/mnt/"+strconv.Itoa(i), "ext4", "defaults", "0", "2")
	}
	return t
}

func BenchmarkSelectEquality(b *testing.B) {
	t := benchTable(100)
	q := Query{Constraints: "dir = ?", Args: []string{"/mnt/50"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := t.Select(q)
		if err != nil || out.Len() != 1 {
			b.Fatal(out, err)
		}
	}
}

func BenchmarkSelectCompound(b *testing.B) {
	t := benchTable(100)
	q := Query{Constraints: "(fstype = ext4 AND pass >= 2) OR dir LIKE %99", Columns: []string{"dir", "options"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := t.Select(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLike matches a pattern with several '%' that almost matches a
// run of 'a's: each '%' multiplies the work of a backtracking matcher by
// the length of the cell.
func BenchmarkLike(b *testing.B) {
	for _, n := range []int{80, 4096} {
		cell := strings.Repeat("a", n)
		b.Run(strconv.Itoa(n)+"B", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if Like("%a%a%a%a%b", cell) {
					b.Fatal("matched")
				}
			}
		})
	}
}
