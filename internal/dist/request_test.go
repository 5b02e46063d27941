package dist

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// entityFromBytes spreads the fuzz input over a request line: the input
// splits at '|' into name, digest and frame, and the first byte of the
// frame picks a nil, empty or given frame.
func entityFromBytes(data []byte) EntityRecord {
	parts := strings.SplitN(string(data), "|", 3)
	for len(parts) < 3 {
		parts = append(parts, "")
	}
	rec := EntityRecord{Name: parts[0], Digest: parts[1], Frame: []byte(parts[2])}
	switch {
	case parts[2] == "":
	case parts[2][0]%3 == 0:
		rec.Frame = nil
	case parts[2][0]%3 == 1:
		rec.Frame = []byte{}
	}
	return rec
}

// checkEntityRecord requires rec to encode to json.Marshal's bytes and
// those bytes to decode to json.Unmarshal's value.
func checkEntityRecord(t *testing.T, rec EntityRecord) {
	t.Helper()
	want := oracleMarshal(t, rec)
	got := AppendEntityRecord(nil, &rec)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding differs from json.Marshal\n got: %q\nwant: %q", got, want)
	}
	var wantRec EntityRecord
	if err := json.Unmarshal(want, &wantRec); err != nil {
		t.Fatal(err)
	}
	gotRecs, err := decodeRequest(string(want))
	if err != nil || len(gotRecs) != 1 || !reflect.DeepEqual(gotRecs[0], wantRec) {
		t.Fatalf("decode %q: %v\n got: %#v\nwant: %#v", want, err, gotRecs, wantRec)
	}
}

// FuzzEntityRecord checks the request-line codec at two levels. Value
// level: a record built from the input encodes to json.Marshal's bytes and
// decodes to json.Unmarshal's value. Byte level: decoding the raw input as
// a request body never panics and accepts exactly what json.Decoder
// accepts, with the same records; each accepted record re-encodes to
// json.Marshal's bytes, which decode back to the same record.
//
//	go test -fuzz FuzzEntityRecord -fuzztime 10s -run FuzzEntityRecord ./internal/dist/
func FuzzEntityRecord(f *testing.F) {
	f.Add([]byte(`{"name":"app-000:v1","digest":"ab","frame":"eyJ0eXBlIjoiZnJhbWUifQo="}` + "\n"))
	f.Add([]byte(`{"name":"a","frame":null}{"name":"b","frame":""}` + "\r\n\t" + `null {"x":[1,{}]}`))
	f.Add([]byte(`{"NAME":"a","Digest":"<&>","fRaMe":"aGk=","frame":"aGk=\n"}`))
	f.Add([]byte(`{"frame":[104,105,null]} {"frame":[256]} {"frame":"a"}`))
	f.Add([]byte("{\"name\":\"\\ud800 \u2028\u2029 \xff\",\"digest\":1}"))
	f.Add([]byte("app|digest|\x01frame bytes \xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEntityRecord(t, entityFromBytes(data))

		got, err := decodeRequest(string(data))
		want, werr := oracleRequest(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decode error %v, json.Decoder error %v", err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded\n got: %#v\nwant: %#v", got, want)
		}
		for i := range got {
			enc := AppendEntityRecord(nil, &got[i])
			if want := oracleMarshal(t, got[i]); !bytes.Equal(enc, want) {
				t.Fatalf("re-encoding differs from json.Marshal\n got: %q\nwant: %q", enc, want)
			}
			again, err := decodeRequest(string(enc))
			if err != nil || len(again) != 1 || !reflect.DeepEqual(again[0], got[i]) {
				t.Fatalf("re-encoded %q decodes to %#v, %v", enc, again, err)
			}
		}
	})
}
