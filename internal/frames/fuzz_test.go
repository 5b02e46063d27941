package frames

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"configvalidator/internal/fixtures"
)

// FuzzFramesRead exercises the frame parser on arbitrary input. Frames
// arrive over HTTP (/v1/validate/frame, and inside /v1/shard/scan
// bodies), so Read must never panic; it must accept exactly what the
// json.Unmarshal reader accepted, decoding to the same frame; Write must
// write the json.Encoder writer's bytes; and every accepted frame must
// survive a Write/Read round trip: re-serializing the re-read frame
// yields the same bytes.
//
//	go test -fuzz FuzzFramesRead -fuzztime 10s ./internal/frames/
func FuzzFramesRead(f *testing.F) {
	// One root keeps the fixture seed near 1.5 KB: the fuzzer minimizes
	// every new interesting input, and minimizing mutants of a full
	// 8 KB host frame stalls a short fuzz run.
	host, _ := fixtures.UbuntuHost("fuzz-host", fixtures.Profile{Seed: 2017, MisconfigRate: 0.4})
	captured, err := Capture(host, []string{"/etc/ssh"}, time.Date(2017, 12, 12, 0, 0, 0, 0, time.UTC))
	if err != nil {
		f.Fatal(err)
	}
	var fixture bytes.Buffer
	if err := captured.Write(&fixture); err != nil {
		f.Fatal(err)
	}
	f.Add(fixture.Bytes())
	header := `{"type":"frame","name":"a","entity_type":"host","version":1,"captured":"2017-12-12T00:00:00+01:00"}` + "\n"
	for _, seed := range []string{
		"",
		header,
		header + `{"type":"dir","path":"/etc","mode":2147484141}` + "\n",
		header + `{"type":"file","path":"/a","content":"AAH/","mtime":"2017-12-11T10:00:00.5Z"}` + "\n",
		`{"type":"package","name":"p","pkg_version":"1"}` + "\n" + header,
		header + `{"type":"feature","name":"sysctl.runtime","output":"x = 1"}` + "\n\n",
		header + `{"type":"file","path":"/a","content":"!!!"}` + "\n",
		header + `{"TYPE":"file","Path":"/<&>\u2028","MODE":420,"uid":-1,"gid":null,"x":[{}],"content":"AA\u003d\u003d"}` + "\r\n",
		header + `{"type":"file","path":"/a","mode":4294967296}` + "\n",
		header + `{"type":"package","name":"p","arch":"\ud800","status":"\xff"}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Read(bytes.NewReader(data))
		want, werr := oracleRead(bytes.NewReader(data))
		if (err == nil) != (werr == nil) {
			t.Fatalf("Read error %v, json.Unmarshal reader error %v", err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(fr, want) {
			t.Fatalf("Read decodes differently from the json.Unmarshal reader\n got: %+v\nwant: %+v", fr, want)
		}
		var first, second bytes.Buffer
		if err := fr.Write(&first); err != nil {
			t.Fatalf("accepted frame does not write: %v", err)
		}
		if enc := oracleWrite(t, fr); !bytes.Equal(first.Bytes(), enc) {
			t.Fatalf("Write differs from the json.Encoder writer\n got: %q\nwant: %q", first.Bytes(), enc)
		}
		back, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written frame rejected: %v\n%s", err, first.Bytes())
		}
		if err := back.Write(&second); err != nil {
			t.Fatalf("re-read frame does not write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("frame changed across Write/Read:\nfirst:  %s\nsecond: %s",
				strings.TrimSpace(first.String()), strings.TrimSpace(second.String()))
		}
	})
}
