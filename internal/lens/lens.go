// Package lens implements the data-normalization layer of ConfigValidator:
// an Augeas-style framework of per-format parsers ("lenses") that convert
// raw configuration file content into the normalized structures the rule
// engine queries.
//
// Following the paper (§2.1, §3.3), configuration files keep their natural
// format: key-value-tree files (nginx.conf, my.cnf, sshd_config, ...) parse
// into a configtree.Node, while schema-pattern files (/etc/fstab,
// /etc/passwd, audit.rules, ...) parse into a schema.Table. A Registry maps
// file names to lenses, mirroring how Augeas selects a lens by path.
package lens

import (
	"fmt"
	"path"
	"strings"
	"sync"
	"sync/atomic"

	"configvalidator/internal/configtree"
	"configvalidator/internal/schema"
)

// Kind distinguishes the two normalized output shapes.
type Kind int

// Lens output kinds.
const (
	KindTree Kind = iota + 1
	KindSchema
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindTree:
		return "tree"
	case KindSchema:
		return "schema"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Result is the normalized form of one configuration file. Exactly one of
// Tree or Table is set, according to Kind.
//
// A Result handed to the rule engine is treated as immutable: the engine
// only queries it, and a fleet-scoped ParseCache may share one Result
// across many entities and concurrent scans. Code that needs to edit a
// parsed tree (remediation) must parse its own copy or Clone it first.
type Result struct {
	Kind  Kind
	Tree  *configtree.Node
	Table *schema.Table

	// uid is the lazily assigned process-unique identity, see UID.
	uid atomic.Uint64
}

// resultUID is the source of Result identities; 0 is reserved for
// "unassigned".
var resultUID atomic.Uint64

// UID returns a process-unique identity for this result, assigned on first
// use. Memoization layers key on it instead of the pointer value: unlike an
// address, a UID is never reused after the result is garbage collected, so
// a stale memo entry can never be mistaken for a new parse.
func (r *Result) UID() uint64 {
	if v := r.uid.Load(); v != 0 {
		return v
	}
	n := resultUID.Add(1)
	if r.uid.CompareAndSwap(0, n) {
		return n
	}
	return r.uid.Load()
}

// Lens converts raw configuration content into a normalized Result.
type Lens interface {
	// Name identifies the lens (e.g. "nginx", "fstab").
	Name() string
	// Kind reports which structure Parse produces.
	Kind() Kind
	// Parse converts content read from path into the normalized form.
	Parse(path string, content []byte) (*Result, error)
}

// ParseError reports a configuration file that the lens could not parse.
type ParseError struct {
	Lens string
	Path string
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("lens %s: %s:%d: %s", e.Lens, e.Path, e.Line, e.Msg)
	}
	return fmt.Sprintf("lens %s: %s: %s", e.Lens, e.Path, e.Msg)
}

func parseErrorf(lens, path string, line int, format string, args ...any) error {
	return &ParseError{Lens: lens, Path: path, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Registry maps file-name patterns to lenses.
type Registry struct {
	entries []registryEntry

	// fileMu guards fileMemo, the path → selection memo for ForFile. A
	// fleet scan asks the same question for the same small set of paths
	// on every entity; answering from the memo skips the pattern walk.
	// A present nil value records "no lens matches". Register invalidates
	// the memo.
	fileMu   sync.RWMutex
	fileMemo map[string]Lens
}

type registryEntry struct {
	pattern string
	lens    Lens
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// Register associates a lens with one or more base-name glob patterns
// (path.Match syntax, applied to the file's base name) or, when the pattern
// contains a '/', to a suffix of the full path.
func (r *Registry) Register(l Lens, patterns ...string) {
	for _, p := range patterns {
		r.entries = append(r.entries, registryEntry{pattern: p, lens: l})
	}
	r.fileMu.Lock()
	r.fileMemo = nil
	r.fileMu.Unlock()
}

// ForFile selects the lens for a file path. Patterns are checked in
// registration order; the first match wins.
func (r *Registry) ForFile(filePath string) (Lens, bool) {
	r.fileMu.RLock()
	l, hit := r.fileMemo[filePath]
	r.fileMu.RUnlock()
	if hit {
		return l, l != nil
	}
	l = r.selectForFile(filePath)
	r.fileMu.Lock()
	if r.fileMemo == nil {
		r.fileMemo = make(map[string]Lens)
	}
	r.fileMemo[filePath] = l
	r.fileMu.Unlock()
	return l, l != nil
}

// selectForFile walks the registered patterns in order; first match wins.
func (r *Registry) selectForFile(filePath string) Lens {
	base := path.Base(filePath)
	for _, e := range r.entries {
		if strings.ContainsRune(e.pattern, '/') {
			if matchPathSuffix(e.pattern, filePath) {
				return e.lens
			}
			continue
		}
		if ok, err := path.Match(e.pattern, base); err == nil && ok {
			return e.lens
		}
	}
	return nil
}

// Parse selects the lens for filePath and parses content with it.
func (r *Registry) Parse(filePath string, content []byte) (*Result, error) {
	l, ok := r.ForFile(filePath)
	if !ok {
		return nil, fmt.Errorf("lens: no lens registered for %q", filePath)
	}
	return l.Parse(filePath, content)
}

func matchPathSuffix(pattern, filePath string) bool {
	patSegs := strings.Split(strings.Trim(pattern, "/"), "/")
	fileSegs := strings.Split(strings.Trim(filePath, "/"), "/")
	if len(patSegs) > len(fileSegs) {
		return false
	}
	offset := len(fileSegs) - len(patSegs)
	for i, ps := range patSegs {
		ok, err := path.Match(ps, fileSegs[offset+i])
		if err != nil || !ok {
			return false
		}
	}
	return true
}

// Default returns a registry with every built-in lens registered under the
// standard file locations of its format — the Go analogue of the stock
// Augeas lens library for the targets in the paper's Table 1.
func Default() *Registry {
	r := NewRegistry()
	r.Register(NewNginx(), "nginx.conf", "*/nginx/*.conf", "*/sites-enabled/*", "*/sites-available/*", "*/conf.d/*.conf")
	r.Register(NewApache(), "apache2.conf", "httpd.conf", "*/apache2/*.conf")
	r.Register(NewINI("mysql"), "my.cnf", "mysqld.cnf", "*.cnf")
	r.Register(NewHadoopXML(), "core-site.xml", "hdfs-site.xml", "yarn-site.xml", "mapred-site.xml")
	r.Register(NewSSHD(), "sshd_config", "ssh_config")
	r.Register(NewSysctl(), "sysctl.conf", "*/sysctl.d/*.conf")
	r.Register(NewFstab(), "fstab")
	r.Register(NewMounts(), "mounts", "mtab")
	r.Register(NewPasswd(), "passwd")
	r.Register(NewGroup(), "group")
	r.Register(NewAudit(), "audit.rules", "*/audit/rules.d/*.rules")
	r.Register(NewModprobe(), "modprobe.conf", "*/modprobe.d/*.conf")
	r.Register(NewHosts(), "hosts")
	r.Register(NewResolv(), "resolv.conf")
	r.Register(NewLimits(), "limits.conf", "*/limits.d/*.conf")
	r.Register(NewCrontab(), "crontab", "*/cron.d/*")
	r.Register(NewJSON("dockerdaemon"), "daemon.json")
	r.Register(NewJSON("json"), "*.json")
	r.Register(NewProperties(), "*.properties")
	r.Register(NewINI("ini"), "*.ini")
	r.Register(NewKeyValue("keyvalue", "="), "*.conf")
	return r
}

// stripLineComment removes a trailing comment introduced by marker when it
// is at line start or preceded by whitespace.
func stripLineComment(line, marker string) string {
	if idx := strings.Index(line, marker); idx == 0 {
		return ""
	}
	for i := 0; i+len(marker) <= len(line); i++ {
		if strings.HasPrefix(line[i:], marker) && i > 0 && (line[i-1] == ' ' || line[i-1] == '\t') {
			return strings.TrimRight(line[:i], " \t")
		}
	}
	return line
}

// splitLines normalizes newlines and splits content into lines.
func splitLines(content []byte) []string {
	s := strings.ReplaceAll(string(content), "\r\n", "\n")
	return strings.Split(s, "\n")
}

// fields splits on runs of spaces and tabs.
func fields(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ' ' || r == '\t' })
}
