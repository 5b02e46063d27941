package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	configvalidator "configvalidator"
	"configvalidator/internal/dist"
)

// FuzzShardRequest sends the input as the body of a shard scan, the one
// request body that reaches a worker from the network: NDJSON
// dist.EntityRecords whose frames frames.Read decodes. Whatever the body,
// the handler must not panic and must answer 200 or 4xx, never 5xx. A 4xx
// streams no records; a 200 streams lines that each decode, through
// encoding/json, as a streamLine and end with the done trailer, whose
// Scanned counts the result lines.
//
//	go test -fuzz FuzzShardRequest -fuzztime 10s -run FuzzShardRequest ./internal/server/
func FuzzShardRequest(f *testing.F) {
	one, _ := shardBody(f, 1)
	two, _ := shardBody(f, 2)
	first := two.Bytes()[:bytes.IndexByte(two.Bytes(), '\n')+1]
	renamed := strings.Replace(one.String(), `"name":"`, `"name":"other-`, 1)
	var rec dist.EntityRecord
	if err := json.Unmarshal(first, &rec); err != nil {
		f.Fatal(err)
	}
	rec.Frame = rec.Frame[:len(rec.Frame)/2]
	halfFrame, err := json.Marshal(rec)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		one.String(),
		two.String(),
		string(first),                // truncated at a record boundary
		two.String()[:len(first)+40], // truncated inside the second record's frame
		one.String()[:one.Len()/2],   // truncated inside the only frame
		renamed,                      // name does not match the frame
		string(halfFrame) + "\n",     // a well-formed record carrying half a frame
		"",                           // empty body
		"{}\n",                       // a record with no frame
	} {
		f.Add([]byte(seed))
	}
	v, err := configvalidator.New()
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(v)
	if err != nil {
		f.Fatal(err)
	}
	s.ShardWorkers = 1
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/shard/scan?shard=fuzz", bytes.NewReader(body)))
		lines := strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n")
		switch {
		case w.Code >= 400 && w.Code < 500:
			for _, line := range lines {
				var rec streamLine
				if json.Unmarshal([]byte(line), &rec) == nil && rec.Type != "" {
					t.Fatalf("%d response streamed a record: %q", w.Code, line)
				}
			}
			return
		case w.Code != http.StatusOK:
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		results := 0
		var rec streamLine
		for _, line := range lines {
			rec = streamLine{}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("bad stream line %q: %v", line, err)
			}
			if rec.Type == dist.TypeResult {
				results++
			}
		}
		if rec.Type != dist.TypeDone || rec.Scanned != results {
			t.Fatalf("stream ends with %+v after %d results", rec, results)
		}
	})
}
