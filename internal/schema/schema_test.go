package schema

import (
	"math/rand"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// fstabTable builds a table shaped like a parsed /etc/fstab.
func fstabTable(t *testing.T) *Table {
	t.Helper()
	tbl := New("/etc/fstab", "device", "dir", "fstype", "options", "dump", "pass")
	rows := [][]string{
		{"/dev/sda1", "/", "ext4", "errors=remount-ro", "0", "1"},
		{"/dev/sda2", "/tmp", "ext4", "nodev,nosuid,noexec", "0", "2"},
		{"/dev/sda3", "/var", "ext4", "defaults", "0", "2"},
		{"tmpfs", "/dev/shm", "tmpfs", "nodev,nosuid", "0", "0"},
	}
	for _, r := range rows {
		if err := tbl.AddRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func mustSelect(t *testing.T, tbl *Table, q Query) *Table {
	t.Helper()
	out, err := tbl.Select(q)
	if err != nil {
		t.Fatalf("Select(%+v): %v", q, err)
	}
	return out
}

func TestSelectAll(t *testing.T) {
	tbl := fstabTable(t)
	out := mustSelect(t, tbl, Query{})
	if out.Len() != 4 || len(out.Columns) != 6 {
		t.Errorf("select all: %d rows, %d cols", out.Len(), len(out.Columns))
	}
}

func TestSelectWithPlaceholder(t *testing.T) {
	tbl := fstabTable(t)
	// The paper's Listing 3: check if /tmp is on a separate partition.
	out := mustSelect(t, tbl, Query{
		Columns:     []string{"*"},
		Constraints: "dir = ?",
		Args:        []string{"/tmp"},
	})
	if out.Len() != 1 || out.Rows[0][0] != "/dev/sda2" {
		t.Errorf("dir=/tmp rows: %v", out.Rows)
	}
}

func TestSelectProjection(t *testing.T) {
	tbl := fstabTable(t)
	out := mustSelect(t, tbl, Query{Columns: []string{"dir", "fstype"}})
	if !reflect.DeepEqual(out.Columns, []string{"dir", "fstype"}) {
		t.Errorf("columns = %v", out.Columns)
	}
	if out.Rows[0][0] != "/" || out.Rows[0][1] != "ext4" {
		t.Errorf("row 0 = %v", out.Rows[0])
	}
}

func TestSelectOperators(t *testing.T) {
	tbl := fstabTable(t)
	tests := []struct {
		name        string
		constraints string
		args        []string
		wantRows    int
	}{
		{"equality", "fstype = ext4", nil, 3},
		{"inequality", "fstype != ext4", nil, 1},
		{"numeric lt", "pass < 2", nil, 2},
		{"numeric le", "pass <= 2", nil, 4},
		{"numeric gt", "pass > 0", nil, 3},
		{"numeric ge", "pass >= 2", nil, 2},
		{"like prefix", "device LIKE /dev/%", nil, 3},
		{"like contains", "options LIKE %nosuid%", nil, 2},
		{"like underscore", "device LIKE /dev/sda_", nil, 3},
		{"in list", "dir IN (/tmp, /var)", nil, 2},
		{"in with placeholders", "dir IN (?, ?)", []string{"/", "/tmp"}, 2},
		{"and", "fstype = ext4 AND pass = 2", nil, 2},
		{"or", "dir = / OR dir = /tmp", nil, 2},
		{"not", "NOT fstype = ext4", nil, 1},
		{"parens", "(dir = / OR dir = /tmp) AND fstype = ext4", nil, 2},
		{"precedence and-over-or", "dir = / OR dir = /tmp AND fstype = tmpfs", nil, 1},
		{"quoted value", `dir = '/tmp'`, nil, 1},
		{"double quoted", `dir = "/tmp"`, nil, 1},
		{"case-insensitive keywords", "dir = / or dir = /tmp", nil, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out := mustSelect(t, tbl, Query{Constraints: tt.constraints, Args: tt.args})
			if out.Len() != tt.wantRows {
				t.Errorf("%q matched %d rows, want %d\n%s", tt.constraints, out.Len(), tt.wantRows, out)
			}
		})
	}
}

func TestSelectNumericVsLexicographic(t *testing.T) {
	tbl := New("t", "v")
	for _, v := range []string{"9", "10", "100"} {
		if err := tbl.AddRow(v); err != nil {
			t.Fatal(err)
		}
	}
	// Numeric comparison: 9 < 10 < 100.
	out := mustSelect(t, tbl, Query{Constraints: "v < 100"})
	if out.Len() != 2 {
		t.Errorf("numeric compare matched %d rows", out.Len())
	}
	// Mixed: non-numeric falls back to string compare.
	tbl2 := New("t2", "v")
	_ = tbl2.AddRow("abc")
	_ = tbl2.AddRow("abd")
	out2 := mustSelect(t, tbl2, Query{Constraints: "v < abd"})
	if out2.Len() != 1 {
		t.Errorf("string compare matched %d rows", out2.Len())
	}
}

func TestSelectErrors(t *testing.T) {
	tbl := fstabTable(t)
	tests := []struct {
		name string
		q    Query
	}{
		{"unknown column in constraint", Query{Constraints: "bogus = 1"}},
		{"unknown column in projection", Query{Columns: []string{"bogus"}}},
		{"missing placeholder value", Query{Constraints: "dir = ?"}},
		{"too many placeholder values", Query{Constraints: "dir = ?", Args: []string{"/", "/tmp"}}},
		{"dangling operator", Query{Constraints: "dir ="}},
		{"bad operator", Query{Constraints: "dir ~ x"}},
		{"unterminated paren", Query{Constraints: "(dir = /"}},
		{"unterminated quote", Query{Constraints: "dir = '/tmp"}},
		{"trailing garbage", Query{Constraints: "dir = / banana"}},
		{"IN without parens", Query{Constraints: "dir IN /tmp"}},
		{"unterminated IN list", Query{Constraints: "dir IN (/tmp"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tbl.Select(tt.q); err == nil {
				t.Errorf("Select(%+v) succeeded, want error", tt.q)
			}
		})
	}
}

func TestAddRowPadding(t *testing.T) {
	tbl := New("t", "a", "b", "c")
	if err := tbl.AddRow("1"); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tbl.Rows[0], []string{"1", "", ""}) {
		t.Errorf("padded row = %v", tbl.Rows[0])
	}
	if err := tbl.AddRow("1", "2", "3", "4"); err == nil {
		t.Error("over-long row accepted")
	}
}

func TestLikeMatch(t *testing.T) {
	tests := []struct {
		pattern, s string
		want       bool
	}{
		{"%", "", true},
		{"%", "anything", true},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"a%c", "abbbc", true},
		{"a%c", "ac", true},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"%suid%", "nodev,nosuid", true},
		{"", "", true},
		{"", "x", false},
		// '_' is one character, not one byte.
		{"a_c", "a\u00e9c", true},
		// Wildcards match newlines.
		{"a_c", "a\nc", true},
		{"%x", "a\nx", true},
	}
	for _, tt := range tests {
		if got := Like(tt.pattern, tt.s); got != tt.want {
			t.Errorf("Like(%q, %q) = %v, want %v", tt.pattern, tt.s, got, tt.want)
		}
	}
}

// TestQuickSelectAgainstNaive cross-checks the constraint engine against a
// naive row filter for randomly generated tables and simple constraints.
func TestQuickSelectAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	for i := 0; i < 300; i++ {
		tbl := New("t", "x", "y")
		n := r.Intn(12)
		for j := 0; j < n; j++ {
			if err := tbl.AddRow(strconv.Itoa(r.Intn(5)), strconv.Itoa(r.Intn(5))); err != nil {
				t.Fatal(err)
			}
		}
		op := ops[r.Intn(len(ops))]
		val := strconv.Itoa(r.Intn(5))
		col := []string{"x", "y"}[r.Intn(2)]
		out, err := tbl.Select(Query{Constraints: col + " " + op + " ?", Args: []string{val}})
		if err != nil {
			t.Fatalf("Select: %v", err)
		}
		want := 0
		ci, _ := tbl.ColumnIndex(col)
		for _, row := range tbl.Rows {
			a, _ := strconv.Atoi(row[ci])
			b, _ := strconv.Atoi(val)
			match := false
			switch op {
			case "=":
				match = a == b
			case "!=":
				match = a != b
			case "<":
				match = a < b
			case "<=":
				match = a <= b
			case ">":
				match = a > b
			case ">=":
				match = a >= b
			}
			if match {
				want++
			}
		}
		if out.Len() != want {
			t.Fatalf("iteration %d: %s %s %s matched %d, naive %d", i, col, op, val, out.Len(), want)
		}
	}
}

// TestQuickAndOrDuality checks De Morgan-style consistency: rows matching
// "A AND B" plus rows matching "NOT (A AND B)" partition the table.
func TestQuickAndOrDuality(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		tbl := New("t", "x", "y")
		n := 1 + r.Intn(10)
		for j := 0; j < n; j++ {
			_ = tbl.AddRow(strconv.Itoa(r.Intn(3)), strconv.Itoa(r.Intn(3)))
		}
		a := "x = " + strconv.Itoa(r.Intn(3))
		b := "y = " + strconv.Itoa(r.Intn(3))
		both := a + " AND " + b
		pos, err := tbl.Select(Query{Constraints: both})
		if err != nil {
			t.Fatal(err)
		}
		neg, err := tbl.Select(Query{Constraints: "NOT (" + both + ")"})
		if err != nil {
			t.Fatal(err)
		}
		if pos.Len()+neg.Len() != tbl.Len() {
			t.Fatalf("partition broken: %d + %d != %d", pos.Len(), neg.Len(), tbl.Len())
		}
	}
}

func TestTableString(t *testing.T) {
	tbl := New("t", "a", "b")
	_ = tbl.AddRow("1", "2")
	s := tbl.String()
	if !strings.Contains(s, "t (a, b)") || !strings.Contains(s, "1 | 2") {
		t.Errorf("String() = %q", s)
	}
}

// TestMayParseFloatIsNecessary holds the Compare fast path to
// strconv.ParseFloat: every string ParseFloat accepts must pass
// mayParseFloat, so skipping the parse for the rest cannot change a
// comparison.
func TestMayParseFloatIsNecessary(t *testing.T) {
	inputs := []struct {
		s    string
		want bool
	}{
		{"", false},
		{"+", false},
		{"-", false},
		{"-.5", true},
		{"Inf", true},
		{"-infinity", true},
		{"nan", true},
		{"NaN", true},
		{"0x1p-2", true},
		{" 1", false},
		{"1e3", true},
		{"1_000", true},
		{".", true},
		{"_1", false},
		{"ext4", false},
		{"defaults", false},
		{"/tmp", false},
		{"x1", false},
	}
	for _, in := range inputs {
		if got := mayParseFloat(in.s); got != in.want {
			t.Errorf("mayParseFloat(%q) = %v, want %v", in.s, got, in.want)
		}
		if _, err := strconv.ParseFloat(in.s, 64); err == nil && !mayParseFloat(in.s) {
			t.Errorf("ParseFloat accepts %q but mayParseFloat rejects it", in.s)
		}
	}
	// The same contract over random short strings from a numeric-ish
	// alphabet, and Compare against the parse-both reference.
	reference := func(a, b string) int {
		fa, errA := strconv.ParseFloat(a, 64)
		fb, errB := strconv.ParseFloat(b, 64)
		if errA == nil && errB == nil {
			switch {
			case fa < fb:
				return -1
			case fa > fb:
				return 1
			}
			return 0
		}
		return strings.Compare(a, b)
	}
	const alphabet = "+-.0159eExpPinfaINFA_ /"
	r := rand.New(rand.NewSource(3))
	gen := func() string {
		b := make([]byte, r.Intn(6))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		a, b := gen(), gen()
		if _, err := strconv.ParseFloat(a, 64); err == nil && !mayParseFloat(a) {
			t.Fatalf("ParseFloat accepts %q but mayParseFloat rejects it", a)
		}
		if got, want := Compare(a, b), reference(a, b); got != want {
			t.Fatalf("Compare(%q, %q) = %d, want %d", a, b, got, want)
		}
	}
}

func TestCompareNonNumericAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { Compare("ext4", "defaults") }); n != 0 {
		t.Errorf("non-numeric compare allocates %v times, want 0", n)
	}
}

// TestNaNIsNotANumber pins NaN as a string: parsed as a float it is
// neither less nor greater than anything, so it equalled every number.
func TestNaNIsNotANumber(t *testing.T) {
	tbl := New("t", "c")
	if err := tbl.AddRow("nan"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		constraints string
		want        int
	}{
		{"c = 0", 0},
		{"c IN (5)", 0},
		{"c != 0", 1},
		{"c >= 5", 1}, // string order: "nan" > "5"
		{"c > 5", 1},
		{"c < 5", 0},
		{"c = nan", 1},
	} {
		out, err := tbl.Select(Query{Constraints: tc.constraints})
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != tc.want {
			t.Errorf("%s selects %d rows of [nan], want %d", tc.constraints, out.Len(), tc.want)
		}
	}
	for _, s := range []string{"nan", "NaN", "-nan", " 5", "5 ", "1e400"} {
		if f, ok := Number(s); ok {
			t.Errorf("Number(%q) = %v, true; want not a number", s, f)
		}
	}
	for _, s := range []string{"5", "-0", "+1e3", "inf", "-Infinity", "0x1p-2"} {
		if _, ok := Number(s); !ok {
			t.Errorf("Number(%q) is not a number", s)
		}
	}
}

// likeReference is the specification Like is fuzzed against: the pattern
// translated to an anchored regexp in which '.' also matches a newline.
func likeReference(pattern string) *regexp.Regexp {
	var b strings.Builder
	b.WriteString(`(?s)\A`)
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString(`\z`)
	return regexp.MustCompile(b.String())
}

func FuzzLike(f *testing.F) {
	for _, seed := range [][2]string{
		{"%", ""}, {"a%c", "abbbc"}, {"a_c", "aéc"}, {"a_c", "a\nc"}, {"%x", "a\nx"},
		{"%a%a%a%a%b", strings.Repeat("a", 40)}, {"_%_", "é"}, {"%_é%", "xéé"},
		{"%%", "x"}, {"a%b%", "aab"}, {"_", ""},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, pattern, s string) {
		if !utf8.ValidString(pattern) || !utf8.ValidString(s) {
			return // '_' counts an invalid byte as one character; the regexp reference cannot express that
		}
		if got, want := Like(pattern, s), likeReference(pattern).MatchString(s); got != want {
			t.Fatalf("Like(%q, %q) = %v, reference %v", pattern, s, got, want)
		}
	})
}
