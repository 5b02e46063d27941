package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"configvalidator/internal/entity"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/frames"
	"configvalidator/internal/jsonwire"
)

// requestFixture is a two-entity shard request body written when the
// coordinator encoded request lines with json.Marshal: fixtureRequest's
// records, one line each.
const requestFixture = "testdata/json-marshal-request.ndjson"

// fixtureRequest is the source of the request fixture: a fixtures.Image
// with a digest, and an entity whose name needs escaping and whose digest
// is empty, each shipped as a frame.
func fixtureRequest(tb testing.TB) []EntityRecord {
	tb.Helper()
	img, _ := fixtures.Image("fixture-app", "v1", fixtures.Profile{Seed: 41, MisconfigRate: 0.5})
	odd := entity.NewMem("odd-<&>\u2028:v1", entity.TypeImage)
	odd.AddFile("/etc/ssh/sshd_config", []byte("PermitRootLogin yes\n# <&> \u2029\n"), entity.WithMode(0o600))
	stamp := time.Date(2017, 12, 12, 0, 0, 0, 0, time.UTC)
	var recs []EntityRecord
	for i, ent := range []entity.Entity{img.Entity(), odd} {
		f, err := frames.Capture(ent, []string{"/etc/ssh", "/etc/sysctl.conf"}, stamp)
		if err != nil {
			tb.Fatal(err)
		}
		var fb bytes.Buffer
		if err := f.Write(&fb); err != nil {
			tb.Fatal(err)
		}
		rec := EntityRecord{Name: ent.Name(), Frame: fb.Bytes()}
		if i == 0 {
			rec.Digest = "sha256:<digest>&"
		}
		recs = append(recs, rec)
	}
	return recs
}

// oracleRequest decodes a request body with json.Decoder, as workers did
// before the hand-written codec.
func oracleRequest(body []byte) ([]EntityRecord, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	var recs []EntityRecord
	for {
		var rec EntityRecord
		if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
			return recs, nil
		} else if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

// decodeRequest decodes a request body the way the shard handler does.
func decodeRequest(body string) ([]EntityRecord, error) {
	var d jsonwire.Decoder
	d.Reset(body)
	var recs []EntityRecord
	for d.More() {
		var rec EntityRecord
		if err := DecodeEntityRecord(&d, &rec); err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, d.End()
}

// TestRequestFixture pins the request-line format to json.Marshal's:
// encoding fixtureRequest's records today reproduces the fixture's bytes,
// and decoding the fixture yields json.Decoder's records, whose frames
// read back as the entities they were captured from.
func TestRequestFixture(t *testing.T) {
	blob, err := os.ReadFile(requestFixture)
	if err != nil {
		t.Fatal(err)
	}
	src := fixtureRequest(t)
	var body []byte
	for i := range src {
		body = append(AppendEntityRecord(body, &src[i]), '\n')
	}
	if !bytes.Equal(body, blob) {
		t.Fatalf("AppendEntityRecord does not reproduce the fixture (%d bytes, fixture %d)", len(body), len(blob))
	}
	want, err := oracleRequest(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRequest(string(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || len(got) != 2 {
		t.Fatalf("decoded %d records, json.Decoder %d; equal=%v", len(got), len(want), reflect.DeepEqual(got, want))
	}
	for i, rec := range got {
		f, err := frames.Read(bytes.NewReader(rec.Frame))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if f.Name != src[i].Name || f.Name != rec.Name {
			t.Fatalf("record %d: frame of %q, want %q", i, f.Name, src[i].Name)
		}
	}
}
