package frames

import (
	"bytes"
	"io/fs"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"configvalidator/internal/fixtures"
	"configvalidator/internal/pkgdb"
)

// encoderFixture was written by Frame.Write when it encoded records with
// a json.Encoder: fixtureFrame's frame, byte for byte.
const encoderFixture = "testdata/json-encoder.frame"

// fixtureFrame is the source of the encoder fixture: a captured
// fixtures.UbuntuHost plus records whose strings cover what encoding/json
// escapes or coerces — HTML-sensitive bytes, U+2028/U+2029, control
// bytes, non-ASCII and invalid UTF-8 — and fields that omitempty drops:
// zero mode and owner, no mtime, empty content, empty package fields.
func fixtureFrame(tb testing.TB) *Frame {
	tb.Helper()
	host, _ := fixtures.UbuntuHost("fixture-host-<&>", fixtures.Profile{Seed: 2017, MisconfigRate: 0.4})
	f, err := Capture(host, nil, time.Date(2017, 12, 12, 8, 30, 0, 0, time.FixedZone("", 3600)))
	if err != nil {
		tb.Fatal(err)
	}
	f.dirs = append(f.dirs,
		dirEntry{path: "/etc/html-<&>", mode: fs.ModeDir | 0o755, uid: -1, gid: 1 << 40},
		dirEntry{path: "/srv/\u2028\u2029", mode: 0})
	f.files = append(f.files,
		fileEntry{path: "/etc/html-<&>/a \"quoted\" \\ name.conf", mode: 0o600, uid: 0, gid: 4,
			modTime: time.Date(2017, 12, 11, 10, 0, 0, 500, time.FixedZone("", -7*3600)),
			content: []byte("bin\x00\xff\xfe <script>&amp;</script>\n")},
		fileEntry{path: "/etc/empty\x7f", modTime: time.Time{}, content: nil},
		fileEntry{path: "/etc/\xffinvalid\xc3.conf", mode: fs.ModeSymlink | 0o777, uid: 1000, gid: 1000,
			modTime: time.Date(2017, 1, 2, 3, 4, 5, 0, time.UTC), content: []byte{0, 1, 2, 250, 251, 252}})
	f.packages = append(f.packages,
		pkgdb.Package{Name: "pkg-<&>", Version: "1:2.3~rc1\u2029", Architecture: "amd64", Status: "install ok installed"},
		pkgdb.Package{Name: "bare"})
	f.features = append(f.features,
		featureEntry{name: "html.<&>", output: "bs\b ff\f nl\n cr\r tab\t nul\x00 us\x1f del\x7f \u00e9\u65e5\U0001F680 \xff"},
		featureEntry{name: "empty"})
	return f
}

// TestEncoderFixture pins the frame format to what Frame.Write wrote with
// encoding/json: writing fixtureFrame today reproduces the fixture's
// bytes, and Read decodes the fixture to the frame the json.Unmarshal
// reader decodes.
func TestEncoderFixture(t *testing.T) {
	blob, err := os.ReadFile(encoderFixture)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fixtureFrame(t).Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), blob) {
		t.Fatalf("Write does not reproduce the fixture (%d bytes, fixture %d)", buf.Len(), len(blob))
	}
	if got := oracleWrite(t, fixtureFrame(t)); !bytes.Equal(got, blob) {
		t.Fatal("the json.Encoder writer does not reproduce the fixture")
	}
	got, err := Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleRead(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Read decodes the fixture differently from the json.Unmarshal reader\n got: %+v\nwant: %+v", got, want)
	}
	if !reflect.DeepEqual(got.Entity(), want.Entity()) {
		t.Fatal("the decoded frames materialize different entities")
	}
}

// TestDecodedFrameDoesNotPinText is the retention rule for frames: the
// strings a decoded frame keeps reach long-lived parse-cache and
// verdict-memo keys, so none of them may share — and keep alive — the
// frame's text.
func TestDecodedFrameDoesNotPinText(t *testing.T) {
	const reads = 1000
	// Kept strings without escapes, which a decoder could slice from the
	// text; an escaped string is unescaped into fresh memory anyway.
	src := fixtureFrame(t)
	src.Name = "retention-host"
	src.files = append(src.files, fileEntry{path: "/etc/big.conf", content: bytes.Repeat([]byte("x = 1\n"), 4096)})
	src.features = append(src.features, featureEntry{name: "plain", output: "kernel.randomize_va_space = 2"})
	var buf bytes.Buffer
	if err := src.Write(&buf); err != nil {
		t.Fatal(err)
	}
	kept := make([][]string, 0, reads)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		f, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		// One string of each kind a frame keeps.
		kept = append(kept, []string{f.Name, f.files[0].path, f.dirs[0].path,
			f.packages[0].Name, f.packages[0].Version, f.packages[0].Architecture, f.packages[0].Status,
			f.features[len(f.features)-1].name, f.features[len(f.features)-1].output})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if perFrame := growth / reads; perFrame >= 2048 {
		t.Fatalf("heap grew %d bytes per frame's kept strings (text %d bytes); decoded strings pin the frame text", perFrame, buf.Len())
	}
	runtime.KeepAlive(kept)
}
