package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"configvalidator/internal/crawler"
	"configvalidator/internal/cvl"
	"configvalidator/internal/engine"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/rules"
)

// encoding/json is the codec's oracle: every test here checks the
// hand-written encoder against json.Marshal and the decoder against
// json.Unmarshal, through the oracle schema in oracle_test.go.

func oracleMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeString decodes one record with a fresh Decoder.
func decodeString(s string) (Record, error) {
	var d Decoder
	return d.record(s)
}

// checkRecord requires rec to encode to json.Marshal's bytes for its
// oracle form and those bytes to decode to what json.Unmarshal's value
// rebuilds.
func checkRecord(t testing.TB, rec Record) {
	t.Helper()
	want := oracleMarshal(t, oracleOf(rec))
	got := appendRecord(nil, &rec)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding differs from json.Marshal\n got: %q\nwant: %q", got, want)
	}
	var wantRec oracleRecord
	if err := json.Unmarshal(want, &wantRec); err != nil {
		t.Fatal(err)
	}
	gotRec, err := decodeString(string(want))
	if err != nil {
		t.Fatalf("decode %q: %v", want, err)
	}
	if !reflect.DeepEqual(gotRec, recordOf(wantRec)) {
		t.Fatalf("decoded %q\n got: %#v\nwant: %#v", want, gotRec, recordOf(wantRec))
	}
}

// trickyPieces are the string fragments where json.Marshal's escaping and
// json.Unmarshal's coercion differ from a naive codec.
var trickyPieces = []string{
	"", "plain", " ", "sshd_config", "<", ">", "&", `"`, `\`, "/", "\b", "\f",
	"\n", "\r", "\t", "\x00", "\x01", "\x1f", "\x7f", "\u2028", "\u2029",
	"\u00e9", "\u65e5\u672c", "\U0001F680", "\ufffd", "\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80",
	"\xc0\xaf", `\u003c`, "a > b && c < d", "PermitRootLogin yes",
}

func randString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(5); n > 0; n-- {
		b.WriteString(trickyPieces[rng.Intn(len(trickyPieces))])
	}
	return b.String()
}

// ruleTypes are the rule types a report may carry, including the zero
// type and one out of range, which encode as RuleType(n).
var ruleTypes = []cvl.RuleType{0, cvl.TypeTree, cvl.TypeSchema, cvl.TypePath, cvl.TypeScript, cvl.TypeComposite, 9}

func randRecord(rng *rand.Rand) Record {
	rec := Record{Entity: randString(rng)}
	if rng.Intn(2) == 0 {
		rec.Digest = randString(rng)
	}
	if rng.Intn(4) == 0 {
		rec.Err = randString(rng)
		return rec
	}
	if rng.Intn(8) == 0 {
		return rec
	}
	rep := &engine.Report{EntityName: randString(rng), EntityType: randString(rng)}
	rec.Report = NewReportRecord(rep)
	if rng.Intn(8) == 0 {
		return rec // nil results encode as empty
	}
	rep.Results = make([]*engine.Result, rng.Intn(6))
	for i := range rep.Results {
		r := &engine.Result{
			EntityName:     randString(rng),
			ManifestEntity: randString(rng),
			Status:         engine.Status(rng.Intn(9) - 2),
			Message:        randString(rng),
			Detail:         randString(rng),
			File:           randString(rng),
		}
		rep.Results[i] = r
		if rng.Intn(9) == 0 {
			r.Status = engine.Status(-rng.Int())
		}
		if rng.Intn(3) == 0 {
			continue
		}
		r.Rule = &cvl.Rule{
			Name:            randString(rng),
			Type:            ruleTypes[rng.Intn(len(ruleTypes))],
			Severity:        randString(rng),
			SuggestedAction: randString(rng),
		}
		switch rng.Intn(3) {
		case 0:
			r.Rule.Tags = []string{} // omitted, like nil
		case 1:
			for n := rng.Intn(4) + 1; n > 0; n-- {
				r.Rule.Tags = append(r.Rule.Tags, randString(rng))
			}
		}
		if i > 0 && rng.Intn(4) == 0 {
			r.Rule = rep.Results[i-1].Rule // shared, as the engine shares compiled rules
		}
	}
	return rec
}

func TestCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		checkRecord(t, randRecord(rng))
	}
	for _, piece := range trickyPieces {
		checkRecord(t, Record{Entity: piece, Digest: piece, Err: piece})
	}
}

// TestDecoderAcceptsWhatUnmarshalAccepts covers JSON no encoder writes —
// whitespace, reordered and unknown keys, nulls, escapes json.Marshal
// never emits — which must still decode to json.Unmarshal's value.
func TestDecoderAcceptsWhatUnmarshalAccepts(t *testing.T) {
	for _, in := range []string{
		`null`,
		` { } `,
		"\t{\n\"entity\" : \"a\" ,\r\"digest\":\"d\"}\n",
		`{"digest":"d","entity":"a","unknown":{"x":[1,-2.5e+3,true,false,null,"s",{}]},"more":[]}`,
		`{"entity":null,"digest":null,"err":null,"report":null}`,
		`{"entity":"a","report":{"results":null}}`,
		`{"entity":"a","report":{"results":[]}}`,
		`{"entity":"a","report":{"results":[null,{}]}}`,
		`{"entity":"a","report":{"type":"t","results":[{"status":null,"rule":null}],"entity":"e"}}`,
		`{"entity":"a","report":{"results":[{"status":-0,"rule":{"tags":[]}}]}}`,
		`{"entity":"a","report":{"results":[{"status":7,"rule":{"tags":null,"name":"n"}}]}}`,
		`{"entity":"a","report":{"results":[{"rule":{"tags":["x",null,"y"],"extra":1}},{"rule":{"tags":["z"]}}]}}`,
		`{"entity":"\/\u0041\u00e9\u65e5\ud83d\ude80\u2028 \b\f\n\r\t\"\\"}`,
		`{"entity":"\ud800","digest":"\udc00x","err":"\ud800A"}`,
		`{"entity":"\ud83d\u0041"}`,
		"{\"entity\":\"\xff\xfe\xed\xa0\x80 raw invalid\"}",
		`{"\u0065ntity":"escaped key"}`,
		`{"ENTITY":"case differs","entity":"a"}`,
		`{"entity":"a","report":{"results":[{"status":9223372036854775807}]}}`,
	} {
		var want oracleRecord
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatalf("oracle rejects %q: %v", in, err)
		}
		got, err := decodeString(in)
		if err != nil {
			t.Errorf("decode %q: %v", in, err)
			continue
		}
		if !reflect.DeepEqual(got, recordOf(want)) {
			t.Errorf("decode %q\n got: %#v\nwant: %#v", in, got, recordOf(want))
		}
	}
}

func TestDecoderRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		``, ` `, `{`, `}`, `[]`, `"entity"`, `nul`, `nulll`, `{} {}`, `{}x`,
		`{"entity"}`, `{"entity":}`, `{"entity" "a"}`, `{"entity":"a",}`,
		`{,"entity":"a"}`, `{"entity":"a" "digest":"d"}`, `{entity:"a"}`,
		`{"entity":'a'}`, `{"entity":"a}`, `{"entity":"a\"}`, `{"entity":"\x"}`,
		`{"entity":"\'"}`, `{"entity":"\u12"}`, `{"entity":"\u12g4"}`,
		"{\"entity\":\"tab\there\"}", "{\"entity\":\"nul\x00\"}",
		`{"entity":1}`, `{"entity":true}`, `{"entity":["a"]}`, `{"entity":{}}`,
		`{"report":[]}`, `{"report":"r"}`, `{"report":{"results":{}}}`,
		`{"report":{"results":[1]}}`, `{"report":{"results":[{"status":"1"}]}}`,
		`{"report":{"results":[{"status":1.5}]}}`, `{"report":{"results":[{"status":1e3}]}}`,
		`{"report":{"results":[{"status":01}]}}`, `{"report":{"results":[{"status":-}]}}`,
		`{"report":{"results":[{"status":99999999999999999999}]}}`,
		`{"report":{"results":[{"rule":{"tags":"t"}}]}}`,
		`{"report":{"results":[{"rule":{"tags":[1]}}]}}`,
		`{"report":{"results":[{},]}}`, `{"report":{"results":[{}{}]}}`,
		`{"x":[1,]}`, `{"x":[1 2]}`, `{"x":{"a":1,}}`, `{"x":tru}`, `{"x":+1}`,
		`{"x":.5}`, `{"x":1.}`, `{"x":1e}`, `{"x":-01}`, `{"x":"\ud800\u"}`,
		strings.Repeat("[", 20000),
		`{"x":` + strings.Repeat("[", 10002) + strings.Repeat("]", 10002) + `}`,
	} {
		if _, err := decodeString(in); err == nil {
			t.Errorf("decode %.60q: want error", in)
		}
	}
}

// fleetReport is one validated fixtures.Fleet image: 124 results, the
// size of a typical journal record or shard-stream result.
func fleetReport(tb testing.TB) *engine.Report {
	tb.Helper()
	reg, _ := fixtures.Fleet(1, fixtures.Profile{Seed: 99, MisconfigRate: 0.3})
	img, err := reg.Pull(reg.Images()[0])
	if err != nil {
		tb.Fatal(err)
	}
	m, err := rules.Manifest()
	if err != nil {
		tb.Fatal(err)
	}
	eng := engine.New(crawler.New(nil, crawler.Options{}))
	rep, err := eng.Validate(img.Entity(), m, engine.NewCachedSource(rules.Reader()))
	if err != nil {
		tb.Fatal(err)
	}
	if len(rep.Results) != 124 {
		tb.Fatalf("fleet report has %d results, want 124", len(rep.Results))
	}
	return rep
}

func fleetRecord(tb testing.TB) Record {
	rep := fleetReport(tb)
	return Record{Entity: rep.EntityName, Digest: strings.Repeat("ab", 32), Report: NewReportRecord(rep)}
}

// FuzzJournalRecord checks the codec at two levels. Value level: a record
// built from the input encodes to json.Marshal's bytes and decodes to
// json.Unmarshal's value. Byte level: decoding the raw input never panics,
// and a record it accepts re-encodes to json.Marshal's bytes, which decode
// back to the same value.
func FuzzJournalRecord(f *testing.F) {
	rec := sampleRecord(1)
	f.Add(appendRecord(nil, &rec))
	f.Add([]byte(`{"entity":"a","err":"x","unknown":[{"k":null}],"report":null}`))
	f.Add([]byte("{\"entity\":\"\\ud83d\\ude80 \xff\",\"digest\":\"<&>\u2028\"}"))
	f.Add([]byte(`{"report":{"results":[{"rule":{"tags":["a",null]}},null]}}`))
	f.Add([]byte(`{"report":{"results":[{"status":1e3}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRecord(t, recordFromBytes(data))

		got, err := decodeString(string(data))
		if err != nil {
			return
		}
		enc := appendRecord(nil, &got)
		if want := oracleMarshal(t, oracleOf(got)); !bytes.Equal(enc, want) {
			t.Fatalf("re-encoding differs from json.Marshal\n got: %q\nwant: %q", enc, want)
		}
		again, err := decodeString(string(enc))
		if err != nil {
			t.Fatalf("decode of re-encoded %q: %v", enc, err)
		}
		if enc2 := appendRecord(nil, &again); !bytes.Equal(enc2, enc) {
			t.Fatalf("re-decoded record re-encodes differently\n got: %q\nwant: %q", enc2, enc)
		}
	})
}

// recordFromBytes spreads the fuzz input over every field of a record:
// the input splits at '|' into strings, the first byte of each string
// picks optional parts and small integers.
func recordFromBytes(data []byte) Record {
	parts := strings.Split(string(data), "|")
	next := func() string {
		s := parts[0]
		if len(parts) > 1 {
			parts = parts[1:]
		}
		return s
	}
	pick := func(s string, n int) int {
		if s == "" {
			return 0
		}
		return int(s[0]) % n
	}
	rec := Record{Entity: next(), Digest: next(), Err: next()}
	if len(parts) < 3 {
		return rec
	}
	rep := &engine.Report{EntityName: next(), EntityType: next(), Results: []*engine.Result{}}
	for len(parts) > 1 {
		r := &engine.Result{EntityName: next(), ManifestEntity: next(), Message: next(), Detail: next(), File: next()}
		r.Status = engine.Status(pick(r.Message, 7) - 1)
		if pick(r.Detail, 2) == 0 {
			r.Rule = &cvl.Rule{Name: next(), Severity: next(), SuggestedAction: next()}
			r.Rule.Type = ruleTypes[pick(next(), len(ruleTypes))]
			for n := pick(r.Rule.Name, 4); n > 0; n-- {
				r.Rule.Tags = append(r.Rule.Tags, next())
			}
		}
		rep.Results = append(rep.Results, r)
	}
	rec.Report = NewReportRecord(rep)
	return rec
}

var (
	benchBytes []byte
	benchRep   *engine.Report
)

// BenchmarkRecordEncode measures encoding one 124-result record, reusing
// one buffer as Append and the shard stream do.
func BenchmarkRecordEncode(b *testing.B) {
	rec := fleetRecord(b)
	buf := appendRecord(nil, &rec)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendRecord(buf[:0], &rec)
	}
	benchBytes = buf
}

// BenchmarkRecordDecode measures decoding one 124-result record and
// rebuilding its engine report, as replay and the coordinator merge do.
func BenchmarkRecordDecode(b *testing.B) {
	rec := fleetRecord(b)
	payload := string(appendRecord(nil, &rec))
	var d Decoder
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := d.record(payload)
		if err != nil {
			b.Fatal(err)
		}
		benchRep = got.Report.Report()
	}
}

// TestDecoderInternsRules checks rule interning: results naming the same
// rule decode to one *cvl.Rule, the table outlives the text it was
// filled from, and it stays bounded while decoding stays exact.
func TestDecoderInternsRules(t *testing.T) {
	rec := fleetRecord(t)
	payload := appendRecord(nil, &rec)
	distinct := make(map[string]bool)
	for _, r := range rec.Report.Results {
		distinct[string(appendResult(nil, &engine.Result{Rule: r.Rule}))] = true
	}
	var d Decoder
	first, err := d.record(string(payload))
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.record(string(payload))
	if err != nil {
		t.Fatal(err)
	}
	rules := make(map[*cvl.Rule]bool)
	for i, r := range first.Report.Results {
		if r.Rule != second.Report.Results[i].Rule {
			t.Fatalf("result %d: the second text's rule was not taken from the table", i)
		}
		rules[r.Rule] = true
	}
	if len(rules) != len(distinct) || len(d.rules) != len(distinct) {
		t.Fatalf("%d distinct rules decoded to %d rules, table holds %d", len(distinct), len(rules), len(d.rules))
	}

	rep := &engine.Report{EntityName: "many", EntityType: "image"}
	for i := 0; i < 3*maxInternedRules; i++ {
		rep.Results = append(rep.Results, &engine.Result{Status: engine.StatusPass,
			Rule: &cvl.Rule{Name: fmt.Sprintf("rule-%d", i%(2*maxInternedRules)), Type: cvl.TypeTree}})
	}
	many := Record{Entity: "many", Report: NewReportRecord(rep)}
	checkRecord(t, many)
	if _, err := d.record(string(appendRecord(nil, &many))); err != nil {
		t.Fatal(err)
	}
	if len(d.rules) > maxInternedRules {
		t.Fatalf("rule table holds %d rules, bound is %d", len(d.rules), maxInternedRules)
	}
}

// TestInternedRulesDoNotPinText is the retention rule for interned rules:
// a kept rule must not share — and keep alive — the ~30 KB text it was
// decoded from.
func TestInternedRulesDoNotPinText(t *testing.T) {
	const texts = 1000
	rec := fleetRecord(t)
	var d Decoder
	var buf []byte
	kept := make([]*cvl.Rule, 0, texts)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < texts; i++ {
		rule := *rec.Report.Results[0].Rule
		rule.Name = fmt.Sprintf("unique-%04d", i)
		rec.Report.Results[0].Rule = &rule
		buf = appendRecord(buf[:0], &rec)
		got, err := d.record(string(buf))
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, got.Report.Results[0].Rule)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if len(buf) < 16<<10 {
		t.Fatalf("text is %d bytes; the test needs texts of realistic size", len(buf))
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if perRule := growth / texts; perRule >= 4096 {
		t.Fatalf("heap grew %d bytes per kept rule (text %d bytes); interned rules pin their texts", perRule, len(buf))
	}
	runtime.KeepAlive(kept)
}
