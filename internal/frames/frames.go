// Package frames implements system configuration frames: serialized
// snapshots of an entity's configuration state that can be validated
// offline, "without requiring any local installation or remote access"
// (paper §2.2 and [24]). A frame is a JSON-lines stream: a header record
// followed by directory, file, package, and feature records.
//
// Frames are written and read by a hand-written codec on internal/jsonwire:
// Append and Write produce exactly the bytes a json.Encoder writes for
// the records, and Read decodes a stream from memory, accepting what
// json.Unmarshal accepted line by line (whitespace, escapes, unknown
// keys, nulls, keys in another case). Every string a decoded frame keeps
// owns its memory, so a frame never pins the text it was read from.
//
// The round-trip property that makes touchless validation sound is that
// validating a frame yields the same results as validating the live entity
// it was captured from; the integration tests assert this.
package frames

import (
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"strings"
	"time"

	"configvalidator/internal/entity"
	"configvalidator/internal/jsonwire"
	"configvalidator/internal/pkgdb"
)

// Version is the frame format version written by this package.
const Version = 1

// record is one JSON line of a frame stream. Its json tags name the fields
// Append writes, in order; tests hold the codec to encoding/json through
// them.
type record struct {
	Type string `json:"type"`

	// Header fields.
	Name       string `json:"name,omitempty"`
	EntityType string `json:"entity_type,omitempty"`
	Version    int    `json:"version,omitempty"`
	Captured   string `json:"captured,omitempty"`

	// File and directory fields.
	Path    string `json:"path,omitempty"`
	Mode    uint32 `json:"mode,omitempty"`
	UID     int    `json:"uid,omitempty"`
	GID     int    `json:"gid,omitempty"`
	ModTime string `json:"mtime,omitempty"`
	Content string `json:"content,omitempty"` // base64

	// Package fields.
	PkgVersion string `json:"pkg_version,omitempty"`
	Arch       string `json:"arch,omitempty"`
	Status     string `json:"status,omitempty"`

	// Feature fields.
	Output string `json:"output,omitempty"`
}

// Frame is an in-memory snapshot of an entity.
type Frame struct {
	// Name is the captured entity's name.
	Name string
	// EntityType is the captured entity's type.
	EntityType entity.Type
	// Captured is the capture timestamp.
	Captured time.Time

	files    []fileEntry
	dirs     []dirEntry
	packages []pkgdb.Package
	features []featureEntry
}

type fileEntry struct {
	path    string
	mode    fs.FileMode
	uid     int
	gid     int
	modTime time.Time
	content []byte
}

type dirEntry struct {
	path string
	mode fs.FileMode
	uid  int
	gid  int
}

type featureEntry struct {
	name   string
	output string
}

// ErrBadFrame reports a malformed frame stream.
var ErrBadFrame = errors.New("frames: malformed frame")

// Capture snapshots an entity. Each root in roots is walked recursively and
// every file found is recorded with content and metadata; when roots is
// empty the entire entity ("/") is captured. Package and feature state are
// always captured. Missing roots are skipped — a frame of an entity without
// /etc/mysql is still a valid frame.
func Capture(e entity.Entity, roots []string, now time.Time) (*Frame, error) {
	f := &Frame{Name: e.Name(), EntityType: e.Type(), Captured: now.UTC()}
	if len(roots) == 0 {
		roots = []string{"/"}
	}
	seen := make(map[string]bool)
	for _, root := range roots {
		err := e.Walk(root, func(fi entity.FileInfo) error {
			if seen[fi.Path] {
				return nil
			}
			seen[fi.Path] = true
			if fi.IsDir() {
				f.dirs = append(f.dirs, dirEntry{path: fi.Path, mode: fi.Mode, uid: fi.UID, gid: fi.GID})
				return nil
			}
			content, err := e.ReadFile(fi.Path)
			if err != nil {
				return fmt.Errorf("read %s: %w", fi.Path, err)
			}
			f.files = append(f.files, fileEntry{
				path:    fi.Path,
				mode:    fi.Mode,
				uid:     fi.UID,
				gid:     fi.GID,
				modTime: fi.ModTime,
				content: content,
			})
			return nil
		})
		if err != nil {
			if errors.Is(err, entity.ErrNotExist) {
				continue
			}
			return nil, fmt.Errorf("walk %s: %w", root, err)
		}
	}
	db, err := e.Packages()
	if err != nil {
		return nil, fmt.Errorf("packages: %w", err)
	}
	f.packages = db.All()
	for _, name := range e.Features() {
		out, err := e.RunFeature(name)
		if err != nil {
			return nil, fmt.Errorf("feature %s: %w", name, err)
		}
		f.features = append(f.features, featureEntry{name: name, output: out})
	}
	return f, nil
}

// Write serializes the frame as JSON lines in one write: exactly the bytes
// a json.Encoder writes for its records.
func (f *Frame) Write(w io.Writer) error {
	if _, err := w.Write(f.Append(make([]byte, 0, f.sizeHint()))); err != nil {
		return fmt.Errorf("frames: write: %w", err)
	}
	return nil
}

// sizeHint estimates the length of the frame's encoding.
func (f *Frame) sizeHint() int {
	n := 128 + 64*len(f.dirs) + 128*len(f.packages)
	for i := range f.files {
		n += 128 + len(f.files[i].path) + base64.StdEncoding.EncodedLen(len(f.files[i].content))
	}
	for _, ft := range f.features {
		n += 64 + len(ft.name) + len(ft.output)
	}
	return n
}

// Append appends the frame's JSON lines to dst, as Write writes them: one
// record per line, each the bytes json.Marshal writes for a record with
// omitempty fields, HTML-safe escaping and content in base64.
func (f *Frame) Append(dst []byte) []byte {
	dst = append(dst, `{"type":"frame"`...)
	dst = jsonwire.AppendField(dst, "name", f.Name)
	dst = jsonwire.AppendField(dst, "entity_type", f.EntityType.String())
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, Version, 10)
	// RFC 3339 timestamps hold no byte JSON escapes.
	dst = append(dst, `,"captured":"`...)
	dst = f.Captured.AppendFormat(dst, time.RFC3339)
	dst = append(dst, "\"}\n"...)
	for i := range f.dirs {
		d := &f.dirs[i]
		dst = appendMeta(append(dst, `{"type":"dir"`...), d.path, d.mode, d.uid, d.gid)
		dst = append(dst, "}\n"...)
	}
	for i := range f.files {
		fe := &f.files[i]
		dst = appendMeta(append(dst, `{"type":"file"`...), fe.path, fe.mode, fe.uid, fe.gid)
		if !fe.modTime.IsZero() {
			dst = append(dst, `,"mtime":"`...)
			dst = append(fe.modTime.AppendFormat(dst, time.RFC3339Nano), '"')
		}
		if len(fe.content) > 0 {
			dst = append(dst, `,"content":"`...)
			dst = append(base64.StdEncoding.AppendEncode(dst, fe.content), '"')
		}
		dst = append(dst, "}\n"...)
	}
	for _, p := range f.packages {
		dst = append(dst, `{"type":"package"`...)
		dst = jsonwire.AppendField(dst, "name", p.Name)
		dst = jsonwire.AppendField(dst, "pkg_version", p.Version)
		dst = jsonwire.AppendField(dst, "arch", p.Architecture)
		dst = jsonwire.AppendField(dst, "status", p.Status)
		dst = append(dst, "}\n"...)
	}
	for _, ft := range f.features {
		dst = append(dst, `{"type":"feature"`...)
		dst = jsonwire.AppendField(dst, "name", ft.name)
		dst = jsonwire.AppendField(dst, "output", ft.output)
		dst = append(dst, "}\n"...)
	}
	return dst
}

// appendMeta appends the path, mode and owner fields of a dir or file
// record, each omitted when empty.
func appendMeta(dst []byte, path string, mode fs.FileMode, uid, gid int) []byte {
	dst = jsonwire.AppendField(dst, "path", path)
	if mode != 0 {
		dst = append(dst, `,"mode":`...)
		dst = strconv.AppendUint(dst, uint64(mode), 10)
	}
	if uid != 0 {
		dst = append(dst, `,"uid":`...)
		dst = strconv.AppendInt(dst, int64(uid), 10)
	}
	if gid != 0 {
		dst = append(dst, `,"gid":`...)
		dst = strconv.AppendInt(dst, int64(gid), 10)
	}
	return dst
}

// Read parses a frame stream written by Write. The stream is read into
// memory whole and decoded line by line, as bufio.ScanLines splits it
// (one trailing carriage return dropped, blank lines skipped). Every
// string the frame keeps — paths, names, package fields, feature output —
// owns its memory, so nothing it hands out pins the stream's text.
func Read(r io.Reader) (*Frame, error) {
	var text strings.Builder
	if sized, ok := r.(interface{ Len() int }); ok {
		text.Grow(sized.Len())
	}
	if _, err := io.Copy(&text, r); err != nil {
		return nil, fmt.Errorf("frames: read: %w", err)
	}
	return parse(text.String())
}

func parse(text string) (*Frame, error) {
	f := &Frame{}
	var d jsonwire.Decoder
	sawHeader := false
	for lineNo := 1; text != ""; lineNo++ {
		line := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		line = strings.TrimSuffix(line, "\r")
		if line == "" {
			continue
		}
		var rec record
		if err := rec.decode(&d, line); err != nil {
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
	if !sawHeader {
		return nil, fmt.Errorf("%w: missing header", ErrBadFrame)
	}
	return f, nil
}

// recordKeys are record's JSON keys, for matching keys in another case.
var recordKeys = []string{"type", "name", "entity_type", "version", "captured", "path", "mode",
	"uid", "gid", "mtime", "content", "pkg_version", "arch", "status", "output"}

// decode decodes one line into rec as json.Unmarshal does, folding the
// case of keys that match no field exactly.
func (rec *record) decode(d *jsonwire.Decoder, line string) error {
	d.Reset(line)
	if !d.Object() {
		return d.End()
	}
	for i := 0; ; i++ {
		key, ok := d.Member(i)
		if !ok {
			return d.End()
		}
		if !rec.field(d, key) && !rec.field(d, jsonwire.FoldKey(key, recordKeys)) {
			d.Skip()
		}
	}
}

// field decodes the value of the member named key and reports whether
// key names a field. The fields a Frame keeps own their memory; the rest —
// type, entity type, timestamps and base64 content, which parse converts —
// share the line's.
func (rec *record) field(d *jsonwire.Decoder, key string) bool {
	switch key {
	case "type":
		d.String(&rec.Type)
	case "name":
		d.OwnedString(&rec.Name)
	case "entity_type":
		d.String(&rec.EntityType)
	case "version":
		d.Int(&rec.Version)
	case "captured":
		d.String(&rec.Captured)
	case "path":
		d.OwnedString(&rec.Path)
	case "mode":
		d.Uint32(&rec.Mode)
	case "uid":
		d.Int(&rec.UID)
	case "gid":
		d.Int(&rec.GID)
	case "mtime":
		d.String(&rec.ModTime)
	case "content":
		d.String(&rec.Content)
	case "pkg_version":
		d.OwnedString(&rec.PkgVersion)
	case "arch":
		d.OwnedString(&rec.Arch)
	case "status":
		d.OwnedString(&rec.Status)
	case "output":
		d.OwnedString(&rec.Output)
	default:
		return false
	}
	return true
}

// Entity materializes the frame as an in-memory entity that validation can
// run against exactly as it would against the live source. The entity
// keeps the captured source's type (a frame of a host validates as a
// host), which is what makes touchless validation transparent to
// entity-type-scoped rules.
func (f *Frame) Entity() *entity.Mem {
	m := entity.NewMem(f.Name, f.EntityType)
	for _, d := range f.dirs {
		m.AddDir(d.path, entity.WithMode(d.mode), entity.WithOwner(d.uid, d.gid))
	}
	for _, fe := range f.files {
		m.AddFile(fe.path, fe.content,
			entity.WithMode(fe.mode),
			entity.WithOwner(fe.uid, fe.gid),
			entity.WithModTime(fe.modTime))
	}
	m.SetPackages(f.packages)
	for _, ft := range f.features {
		m.SetFeature(ft.name, ft.output)
	}
	return m
}

// NumFiles reports how many file records the frame holds.
func (f *Frame) NumFiles() int { return len(f.files) }

// NumPackages reports how many package records the frame holds.
func (f *Frame) NumPackages() int { return len(f.packages) }
