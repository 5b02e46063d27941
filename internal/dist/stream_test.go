package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"configvalidator/internal/journal"
)

// encoding/json is the stream codec's oracle: AppendStreamRecord must
// write json.Marshal's bytes and decodeStreamRecord must return
// json.Unmarshal's value, so a coordinator and a worker interoperate with
// a peer that still uses encoding/json.

func decodeLine(line string) (StreamRecord, error) {
	var d journal.Decoder
	return decodeStreamRecord(&d, line)
}

// checkStreamRecord requires rec to encode to json.Marshal's bytes and
// those bytes to decode to json.Unmarshal's value.
func checkStreamRecord(t *testing.T, rec StreamRecord) {
	t.Helper()
	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendStreamRecord(nil, &rec); !bytes.Equal(got, want) {
		t.Fatalf("encoding differs from json.Marshal\n got: %q\nwant: %q", got, want)
	}
	var wantRec StreamRecord
	if err := json.Unmarshal(want, &wantRec); err != nil {
		t.Fatal(err)
	}
	got, err := decodeLine(string(want))
	if err != nil {
		t.Fatalf("decode %q: %v", want, err)
	}
	if !reflect.DeepEqual(got, wantRec) {
		t.Fatalf("decoded %q\n got: %#v\nwant: %#v", want, got, wantRec)
	}
}

// streamFromBytes spreads the fuzz input over every field of a stream
// record: the input splits at '|' into strings, and the first byte of a
// string picks flags and small integers.
func streamFromBytes(data []byte) StreamRecord {
	parts := strings.Split(string(data), "|")
	next := func() string {
		s := parts[0]
		if len(parts) > 1 {
			parts = parts[1:]
		}
		return s
	}
	small := func(s string) int {
		if s == "" {
			return 0
		}
		return int(s[0])
	}
	rec := StreamRecord{Type: next(), Entity: next(), Digest: next(), Err: next(), ErrKind: next()}
	rec.Resumed = small(rec.Type)%2 == 1
	rec.Scanned = small(rec.Entity) - 64
	if len(parts) < 3 {
		return rec
	}
	rec.Report = &journal.ReportRecord{Entity: next(), Type: next(), Results: []journal.ResultRecord{}}
	for len(parts) > 1 {
		r := journal.ResultRecord{Entity: next(), ManifestEntity: next(), Message: next(), Detail: next()}
		r.Status = small(r.Message) % 5
		if small(r.Detail)%2 == 0 {
			r.Rule = &journal.RuleRecord{Name: next(), Type: next(), Tags: []string{next(), next()}, Severity: next()}
		}
		rec.Report.Results = append(rec.Report.Results, r)
	}
	return rec
}

func TestStreamCodecMatchesEncodingJSON(t *testing.T) {
	pieces := []string{"", "result", "a<b>&c", `"\`, "\b\f\n\r\t\x00\x1f", "\u2028\u2029",
		"\u00e9\U0001F680", "\xff\xed\xa0\x80", "app-001:v1", "|", "panic"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		var b strings.Builder
		for n := rng.Intn(40); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		checkStreamRecord(t, streamFromBytes([]byte(b.String())))
	}
	for _, rec := range []StreamRecord{
		{Type: TypeHeartbeat},
		{Type: TypeDone, Scanned: 8},
		{Type: TypeDegradedJournal, Err: "no space left on device"},
		{Type: TypeResult, Entity: "e", Digest: "d", Resumed: true, Report: &journal.ReportRecord{}},
		{Type: TypeResult, Entity: "e", Err: "boom", ErrKind: "panic"},
	} {
		checkStreamRecord(t, rec)
	}
}

// FuzzStreamRecord checks the stream codec at two levels. Value level: a
// record built from the input encodes to json.Marshal's bytes and decodes
// to json.Unmarshal's value. Byte level: decoding the raw input as a
// response line never panics, and a record it accepts re-encodes to
// json.Marshal's bytes, which decode back to the same value.
func FuzzStreamRecord(f *testing.F) {
	f.Add([]byte(`{"type":"heartbeat"}`))
	f.Add([]byte(`{"type":"done","scanned":3}`))
	f.Add([]byte(`{"type":"result","entity":"app-000:v1","digest":"ab","resumed":true,"report":{"entity":"app-000:v1","type":"image","results":[{"status":1,"rule":{"name":"n","tags":["#cis"]}}]}}`))
	f.Add([]byte(`{"type":"result","entity":"e","err":"x <","err_kind":"panic","extra":[1,{"a":null}]}`))
	f.Add([]byte("result|e\xff|d|err|kind|rep|image|r|m|msg|\x00detail|name"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkStreamRecord(t, streamFromBytes(data))

		got, err := decodeLine(string(data))
		if err != nil {
			return
		}
		enc := AppendStreamRecord(nil, &got)
		want, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("re-encoding differs from json.Marshal\n got: %q\nwant: %q", enc, want)
		}
		again, err := decodeLine(string(enc))
		if err != nil {
			t.Fatalf("decode of re-encoded %q: %v", enc, err)
		}
		if enc2 := AppendStreamRecord(nil, &again); !bytes.Equal(enc2, enc) {
			t.Fatalf("re-decoded record re-encodes differently\n got: %q\nwant: %q", enc2, enc)
		}
	})
}

// TestDecodedEntityDoesNotPinLine is the retention rule: the coordinator
// keeps each result's entity name in run.emitted long after it drops the
// report, so a decoded name must not share — and keep alive — the ~30 KB
// line it came from.
func TestDecodedEntityDoesNotPinLine(t *testing.T) {
	const lines = 1000
	rep := &journal.ReportRecord{Entity: "app", Type: "image", Results: make([]journal.ResultRecord, 124)}
	for i := range rep.Results {
		rep.Results[i] = journal.ResultRecord{
			Entity: "app", ManifestEntity: "nginx", Status: i % 4,
			Message: strings.Repeat("message ", 16), Detail: strings.Repeat("detail ", 8),
			Rule: &journal.RuleRecord{Name: fmt.Sprintf("rule-%d", i), Type: "config_tree", Tags: []string{"#cis"}},
		}
	}
	var d journal.Decoder
	var buf []byte
	emitted := make(map[string]bool, lines)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < lines; i++ {
		rec := StreamRecord{Type: TypeResult, Entity: fmt.Sprintf("app-%04d:v1", i), Digest: "d", Report: rep}
		buf = AppendStreamRecord(buf[:0], &rec)
		got, err := decodeStreamRecord(&d, string(buf))
		if err != nil {
			t.Fatal(err)
		}
		emitted[got.Entity] = true
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(buf) < 16<<10 {
		t.Fatalf("line is %d bytes; the test needs lines of realistic size", len(buf))
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if perName := growth / lines; perName >= 1024 {
		t.Fatalf("heap grew %d bytes per kept entity name (line %d bytes); decoded names pin their lines", perName, len(buf))
	}
	runtime.KeepAlive(emitted)
}
