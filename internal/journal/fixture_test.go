package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"configvalidator/internal/cvl"
	"configvalidator/internal/engine"
	"configvalidator/internal/output"
)

// oldFormatFixture was written by Journal.Append when it encoded records
// with json.Marshal. It holds fixtureReports' records followed by a torn
// tail: the header and first half of one more record.
const oldFormatFixture = "testdata/json-marshal.cvj"

// fixtureReports are the sources of the old-format fixture's records. Their
// strings cover what encoding/json escapes or coerces: HTML-sensitive
// bytes, U+2028/U+2029, control bytes, non-ASCII and invalid UTF-8.
func fixtureReports() []*engine.Report {
	rule := func(name string, tags ...string) *cvl.Rule {
		return &cvl.Rule{Type: cvl.TypeTree, Name: name, Tags: tags, Severity: "high",
			SuggestedAction: "set " + name + " <no> && restart"}
	}
	report := func(name string, results ...*engine.Result) *engine.Report {
		for _, r := range results {
			r.EntityName = name
		}
		return &engine.Report{EntityName: name, EntityType: "host", Results: results}
	}
	return []*engine.Report{
		report("html-<&>",
			&engine.Result{ManifestEntity: "nginx", Rule: rule("server_tokens", "#cis", "#<nginx>"),
				Status: engine.StatusFail, Message: `<script>alert("x")</script> & more`,
				Detail: "observed a > b && c < d", File: "/etc/nginx/nginx.conf"},
			&engine.Result{ManifestEntity: "nginx", Rule: rule("ssl_protocols"),
				Status: engine.StatusPass, Message: "TLS &gt; 1.1"}),
		report("separators",
			&engine.Result{ManifestEntity: "sshd", Rule: rule("Banner", "#cis"),
				Status: engine.StatusFail, Message: "line\u2028separator", Detail: "paragraph\u2029separator"}),
		report("control-bytes",
			&engine.Result{ManifestEntity: "sysctl", Rule: rule("kernel.printk"),
				Status: engine.StatusDegraded, Message: "bs\b ff\f nl\n cr\r tab\t nul\x00 us\x1f del\x7f",
				Detail: `quote" backslash\ slash/`}),
		report("text-\u00e9\u65e5\u672c\U0001F680",
			&engine.Result{ManifestEntity: "mysql", Rule: rule("bind-address", "#\u00e9t\u00e9"),
				Status: engine.StatusNotApplicable, Message: "caf\u00e9 \u65e5\u672c\u8a9e \U0001F680 \ufffd"},
			&engine.Result{ManifestEntity: "mysql", Status: engine.StatusError,
				Message: "invalid \xff\xfe utf-8 \xc3 truncated \xed\xa0\x80 surrogate", File: "/etc/\xffmy.cnf"}),
		// The duplicate entity: a later scan of html-<&> with new findings.
		report("html-<&>",
			&engine.Result{ManifestEntity: "nginx", Rule: rule("server_tokens", "#cis"),
				Status: engine.StatusPass, Message: "fixed <ok>"}),
		{EntityName: "empty", EntityType: "image", Results: []*engine.Result{}},
	}
}

// fixtureRecords are the fixture's records in file order, including an
// audit-only failure record and the duplicate entity.
func fixtureRecords() []Record {
	reps := fixtureReports()
	recs := make([]Record, 0, len(reps)+1)
	for i, rep := range reps {
		recs = append(recs, Record{Entity: rep.EntityName, Digest: "digest-" + string(rune('a'+i)), Report: NewReportRecord(rep)})
		if i == 2 {
			recs = append(recs, Record{Entity: "broken-<image>:v1", Err: "scan panicked: \"nil map\"\u2028\u2029\b\xff"})
		}
	}
	return recs
}

// jsonText maps every string of the report as a trip through encoding/json
// does, in the old format as in the new: each invalid UTF-8 byte becomes
// U+FFFD. Ranging over a string yields U+FFFD for each such byte, one
// byte at a time. Reports of valid UTF-8 pass through unchanged.
func jsonText(rep *engine.Report) *engine.Report {
	fix := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			b.WriteRune(r)
		}
		return b.String()
	}
	out := &engine.Report{EntityName: fix(rep.EntityName), EntityType: fix(rep.EntityType)}
	for _, r := range rep.Results {
		c := *r
		c.EntityName, c.ManifestEntity, c.Message, c.Detail, c.File = fix(c.EntityName), fix(c.ManifestEntity), fix(c.Message), fix(c.Detail), fix(c.File)
		out.Results = append(out.Results, &c)
	}
	return out
}

func renderText(t *testing.T, rep *engine.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := output.WriteText(&buf, rep, output.Options{Verbose: true, ShowPassing: true}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOldFormatFixture pins compatibility with journals written through
// json.Marshal: Open replays the fixture and truncates its torn tail, the
// Decoder reads each record as json.Unmarshal reads the same payload, the
// report renders like its source, and appending the same records today
// reproduces the fixture's bytes.
func TestOldFormatFixture(t *testing.T) {
	blob, err := os.ReadFile(oldFormatFixture)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.cvj")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	recs := fixtureRecords()
	j := mustOpen(t, path, Options{})
	st := j.Stats()
	if st.Replayed != int64(len(recs)) || st.CorruptRecords != 1 || st.Entities != len(recs)-2 {
		t.Fatalf("stats = %+v, want %d replayed, 1 corrupt, %d entities", st, len(recs), len(recs)-2)
	}
	if got, _ := j.Replay("html-<&>", "digest-e"); got == nil {
		t.Error("duplicate entity: the later record did not win")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	reps := fixtureReports()
	off := int64(len(magic))
	var dec Decoder
	for i := range recs {
		length := int64(binary.LittleEndian.Uint32(blob[off:]))
		payload := blob[off+8 : off+8+length]
		got, err := dec.record(string(payload))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		var oracle oracleRecord
		if err := json.Unmarshal(payload, &oracle); err != nil {
			t.Fatalf("record %d: oracle: %v", i, err)
		}
		off += 8 + length
		if want := recordOf(oracle); !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d decodes differently from json.Unmarshal\n got: %#v\nwant: %#v", i, got, want)
		}
		if got.Report == nil {
			if got.Err == "" {
				t.Fatalf("record %d: neither report nor error", i)
			}
			continue
		}
		src := jsonText(reps[0])
		reps = reps[1:]
		rep := got.Report.Report()
		if a, b := renderJSON(t, rep), renderJSON(t, src); !bytes.Equal(a, b) {
			t.Errorf("record %d: JSON report differs from its source\n got: %s\nwant: %s", i, a, b)
		}
		if a, b := renderText(t, rep), renderText(t, src); !bytes.Equal(a, b) {
			t.Errorf("record %d: text report differs from its source\n got: %s\nwant: %s", i, a, b)
		}
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(after)) != off || len(after) >= len(blob) {
		t.Fatalf("recovered size %d, want %d (the fixture without its %d-byte torn tail)", len(after), off, int64(len(blob))-off)
	}
	fresh := filepath.Join(t.TempDir(), "new.cvj")
	nj := mustOpen(t, fresh, Options{})
	for _, rec := range recs {
		if err := nj.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := nj.Close(); err != nil {
		t.Fatal(err)
	}
	if rewritten, err := os.ReadFile(fresh); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(rewritten, after) {
		t.Fatal("appending the fixture's records does not reproduce its bytes")
	}
}
