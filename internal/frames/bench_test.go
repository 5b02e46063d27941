package frames

import (
	"bytes"
	"testing"
	"time"

	"configvalidator/internal/entity"
	"configvalidator/internal/fixtures"
)

// namedFrame is one frame the codec benchmarks encode and decode.
type namedFrame struct {
	name  string
	frame *Frame
}

// benchFrames are one fixtures.Fleet image, the kind of entity dist-2w
// ships, and one fixtures.UbuntuHost.
func benchFrames(b *testing.B) []namedFrame {
	b.Helper()
	reg, _ := fixtures.Fleet(1, fixtures.Profile{Seed: 99, MisconfigRate: 0.3})
	img, err := reg.Pull(reg.Images()[0])
	if err != nil {
		b.Fatal(err)
	}
	host, _ := fixtures.UbuntuHost("bench-host", fixtures.Profile{Seed: 2017, MisconfigRate: 0.4})
	stamp := time.Date(2017, 12, 12, 0, 0, 0, 0, time.UTC)
	var out []namedFrame
	for _, e := range []entity.Entity{img.Entity(), host} {
		f, err := Capture(e, nil, stamp)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, namedFrame{name: e.Type().String(), frame: f})
	}
	return out
}

var benchFrame *Frame

// BenchmarkFrameWrite measures serializing one frame into a reused
// buffer, as the coordinator packs each entity.
func BenchmarkFrameWrite(b *testing.B) {
	for _, bf := range benchFrames(b) {
		b.Run(bf.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := bf.frame.Write(&buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := bf.frame.Write(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrameRead measures decoding one frame from memory, as a worker
// decodes each shipped entity.
func BenchmarkFrameRead(b *testing.B) {
	for _, bf := range benchFrames(b) {
		b.Run(bf.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := bf.frame.Write(&buf); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := Read(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				benchFrame = f
			}
		})
	}
}
