package lens

import (
	"strings"

	"configvalidator/internal/schema"
)

// Modprobe parses modprobe.d configuration files into a table with columns:
//
//	directive  install | blacklist | options | alias | remove | softdep
//	module     the module (or alias wildcard) the directive applies to
//	args       everything after the module name
//	raw        the original line
//
// CIS rules such as "ensure mounting of cramfs is disabled" check for rows
// like (install, cramfs, /bin/true).
type Modprobe struct{}

var _ Lens = (*Modprobe)(nil)

// NewModprobe returns the modprobe.d lens.
func NewModprobe() *Modprobe { return &Modprobe{} }

// Name implements Lens.
func (l *Modprobe) Name() string { return "modprobe" }

var modprobeDirectives = map[string]bool{
	"install":   true,
	"blacklist": true,
	"options":   true,
	"alias":     true,
	"remove":    true,
	"softdep":   true,
}

// Parse implements Lens.
func (l *Modprobe) Parse(path string, content []byte) (*Result, error) {
	t := schema.New(path, "directive", "module", "args", "raw")
	t.File = path
	for r := newLineReader(content); r.scan("#", true); {
		line, lineNum := r.text, r.start
		parts := fields(line)
		if !modprobeDirectives[parts[0]] {
			return nil, parseErrorf("modprobe", path, lineNum, "unknown directive %q", parts[0])
		}
		if len(parts) < 2 {
			return nil, parseErrorf("modprobe", path, lineNum, "directive %q requires a module name", parts[0])
		}
		args := ""
		if len(parts) > 2 {
			args = strings.Join(parts[2:], " ")
		}
		if err := t.AddRow(parts[0], parts[1], args, line); err != nil {
			return nil, parseErrorf("modprobe", path, lineNum, "%v", err)
		}
	}
	return &Result{Kind: KindSchema, Table: t}, nil
}
