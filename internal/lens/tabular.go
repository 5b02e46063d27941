package lens

import (
	"strings"

	"configvalidator/internal/schema"
)

// Tabular is a generic lens for schema-pattern files (§2.1.1 of the paper):
// one row per line, fields separated by a delimiter, positional meaning.
type Tabular struct {
	name      string
	columns   []string
	delimiter string // "" means whitespace
	// lastCatchAll folds any extra fields into the final column, which is
	// how gecos-style free-text fields behave.
	lastCatchAll bool
	// strict rejects rows with fewer fields than columns (minus optional
	// trailing columns allowed by minFields).
	minFields int
}

var _ Lens = (*Tabular)(nil)

// NewTabular builds a tabular lens. delimiter "" splits on whitespace.
func NewTabular(name, delimiter string, minFields int, columns ...string) *Tabular {
	return &Tabular{name: name, columns: columns, delimiter: delimiter, minFields: minFields}
}

// Name implements Lens.
func (l *Tabular) Name() string { return l.name }

// Parse implements Lens.
func (l *Tabular) Parse(path string, content []byte) (*Result, error) {
	t := schema.New(path, l.columns...)
	t.File = path
	for r := newLineReader(content); r.scan("#", false); {
		line := r.text
		var parts []string
		if l.delimiter == "" {
			parts = fields(line)
		} else {
			parts = strings.Split(line, l.delimiter)
		}
		if len(parts) < l.minFields {
			return nil, parseErrorf(l.name, path, r.start, "expected at least %d fields, got %d in %q", l.minFields, len(parts), line)
		}
		if len(parts) > len(l.columns) {
			if l.lastCatchAll || l.delimiter == "" {
				head := parts[:len(l.columns)-1]
				tail := strings.Join(parts[len(l.columns)-1:], delimiterOrSpace(l.delimiter))
				parts = append(append([]string(nil), head...), tail)
			} else {
				return nil, parseErrorf(l.name, path, r.start, "expected at most %d fields, got %d in %q", len(l.columns), len(parts), line)
			}
		}
		if err := t.AddRow(parts...); err != nil {
			return nil, parseErrorf(l.name, path, r.start, "%v", err)
		}
	}
	return &Result{Kind: KindSchema, Table: t}, nil
}

func delimiterOrSpace(d string) string {
	if d == "" {
		return " "
	}
	return d
}

// RenderTable serializes a parsed table back to the lens's native line
// format — the schema-side analogue of Renderer, which powers the
// round-trip property tests. Rendering is canonical rather than
// comment/whitespace-preserving: the guarantee is Parse(RenderTable(t)) ≡ t.
// Whitespace-delimited formats cannot represent empty or
// whitespace-containing interior fields; those rows are rejected.
func (l *Tabular) RenderTable(t *schema.Table) ([]byte, error) {
	delim := delimiterOrSpace(l.delimiter)
	var b strings.Builder
	for i, row := range t.Rows {
		end := len(row)
		for end > l.minFields && end > 0 && row[end-1] == "" {
			end--
		}
		fields := row[:end]
		if l.delimiter == "" {
			for _, f := range fields {
				if f == "" || strings.ContainsAny(f, " \t") {
					return nil, parseErrorf(l.name, t.File, i+1,
						"field %q not representable in a whitespace-delimited format", f)
				}
			}
		}
		b.WriteString(strings.Join(fields, delim))
		b.WriteByte('\n')
	}
	return []byte(b.String()), nil
}

// NewFstab returns the /etc/fstab lens (whitespace-delimited, six columns;
// dump and pass are optional).
func NewFstab() *Tabular {
	return NewTabular("fstab", "", 4, "device", "dir", "fstype", "options", "dump", "pass")
}

// NewMounts returns the /proc/mounts lens, which shares fstab's format.
func NewMounts() *Tabular {
	return NewTabular("mounts", "", 4, "device", "dir", "fstype", "options", "dump", "pass")
}

// NewPasswd returns the /etc/passwd lens (colon-delimited, seven columns).
func NewPasswd() *Tabular {
	l := NewTabular("passwd", ":", 7, "name", "password", "uid", "gid", "gecos", "home", "shell")
	return l
}

// NewGroup returns the /etc/group lens (colon-delimited, four columns; the
// member list may be empty).
func NewGroup() *Tabular {
	return NewTabular("group", ":", 3, "name", "password", "gid", "members")
}
