package frames

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"testing"
	"time"

	"configvalidator/internal/entity"
	"configvalidator/internal/pkgdb"
)

// The frame codec's oracle: the writer and reader Frame used while it was
// built on encoding/json, kept verbatim apart from their signatures.

// oracleWrite is Frame.Write as it was on encoding/json: one
// json.Encoder.Encode per record.
func oracleWrite(tb testing.TB, f *Frame) []byte {
	tb.Helper()
	var w bytes.Buffer
	enc := json.NewEncoder(&w)
	header := record{
		Type:       "frame",
		Name:       f.Name,
		EntityType: f.EntityType.String(),
		Version:    Version,
		Captured:   f.Captured.Format(time.RFC3339),
	}
	if err := enc.Encode(header); err != nil {
		tb.Fatal(err)
	}
	for _, d := range f.dirs {
		rec := record{Type: "dir", Path: d.path, Mode: uint32(d.mode), UID: d.uid, GID: d.gid}
		if err := enc.Encode(rec); err != nil {
			tb.Fatal(err)
		}
	}
	for _, fe := range f.files {
		rec := record{
			Type:    "file",
			Path:    fe.path,
			Mode:    uint32(fe.mode),
			UID:     fe.uid,
			GID:     fe.gid,
			Content: base64.StdEncoding.EncodeToString(fe.content),
		}
		if !fe.modTime.IsZero() {
			rec.ModTime = fe.modTime.Format(time.RFC3339Nano)
		}
		if err := enc.Encode(rec); err != nil {
			tb.Fatal(err)
		}
	}
	for _, p := range f.packages {
		rec := record{Type: "package", Name: p.Name, PkgVersion: p.Version, Arch: p.Architecture, Status: p.Status}
		if err := enc.Encode(rec); err != nil {
			tb.Fatal(err)
		}
	}
	for _, ft := range f.features {
		rec := record{Type: "feature", Name: ft.name, Output: ft.output}
		if err := enc.Encode(rec); err != nil {
			tb.Fatal(err)
		}
	}
	return w.Bytes()
}

// oracleRead is Read as it was on encoding/json: a bufio.Scanner over the
// stream and one json.Unmarshal per line.
func oracleRead(r io.Reader) (*Frame, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	f := &Frame{}
	sawHeader := false
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			// A stream cut off mid-line (size limit, broken connection)
			// surfaces here as a partial final token; report the
			// underlying read error, not a misleading parse error.
			if rerr := scanner.Err(); rerr != nil {
				return nil, fmt.Errorf("frames: read: %w", rerr)
			}
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadFrame, lineNo, err)
		}
		switch rec.Type {
		case "frame":
			if sawHeader {
				return nil, fmt.Errorf("%w: line %d: duplicate header", ErrBadFrame, lineNo)
			}
			if rec.Version != Version {
				return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFrame, rec.Version)
			}
			typ, err := entity.ParseType(rec.EntityType)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrBadFrame, lineNo, err)
			}
			f.Name = rec.Name
			f.EntityType = typ
			if rec.Captured != "" {
				ts, err := time.Parse(time.RFC3339, rec.Captured)
				if err != nil {
					return nil, fmt.Errorf("%w: line %d: bad timestamp: %v", ErrBadFrame, lineNo, err)
				}
				f.Captured = ts
			}
			sawHeader = true
		case "dir":
			if !sawHeader {
				return nil, fmt.Errorf("%w: line %d: record before header", ErrBadFrame, lineNo)
			}
			f.dirs = append(f.dirs, dirEntry{path: rec.Path, mode: fs.FileMode(rec.Mode), uid: rec.UID, gid: rec.GID})
		case "file":
			if !sawHeader {
				return nil, fmt.Errorf("%w: line %d: record before header", ErrBadFrame, lineNo)
			}
			content, err := base64.StdEncoding.DecodeString(rec.Content)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: bad content: %v", ErrBadFrame, lineNo, err)
			}
			fe := fileEntry{
				path:    rec.Path,
				mode:    fs.FileMode(rec.Mode),
				uid:     rec.UID,
				gid:     rec.GID,
				content: content,
			}
			if rec.ModTime != "" {
				ts, err := time.Parse(time.RFC3339Nano, rec.ModTime)
				if err != nil {
					return nil, fmt.Errorf("%w: line %d: bad mtime: %v", ErrBadFrame, lineNo, err)
				}
				fe.modTime = ts
			}
			f.files = append(f.files, fe)
		case "package":
			f.packages = append(f.packages, pkgdb.Package{
				Name: rec.Name, Version: rec.PkgVersion, Architecture: rec.Arch, Status: rec.Status,
			})
		case "feature":
			f.features = append(f.features, featureEntry{name: rec.Name, output: rec.Output})
		default:
			return nil, fmt.Errorf("%w: line %d: unknown record type %q", ErrBadFrame, lineNo, rec.Type)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("frames: read: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("%w: missing header", ErrBadFrame)
	}
	return f, nil
}
