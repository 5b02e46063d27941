package lens

import (
	"strings"

	"configvalidator/internal/configtree"
)

// KeyValue is a generic lens for flat "key <sep> value" files. It covers the
// simplest key-value-tree pattern from §2.1.1 of the paper.
type KeyValue struct {
	name string
	sep  string // separator: "=" or ":"; empty means whitespace
}

var _ Lens = (*KeyValue)(nil)

// NewKeyValue returns a key-value lens using the given separator; pass ""
// for whitespace-separated files.
func NewKeyValue(name, sep string) *KeyValue {
	return &KeyValue{name: name, sep: sep}
}

// Name implements Lens.
func (l *KeyValue) Name() string { return l.name }

// Parse implements Lens.
func (l *KeyValue) Parse(path string, content []byte) (*Result, error) {
	root := configtree.New(path)
	root.File = path
	for r := newLineReader(content); r.scan("#", false); {
		line := r.text
		if line[0] == ';' {
			continue
		}
		key, value, ok := splitKeyValue(line, l.sep)
		if !ok {
			return nil, parseErrorf(l.name, path, r.start, "expected 'key%svalue', got %q", displaySep(l.sep), line)
		}
		node := root.Add(key, value)
		node.Line = r.start
	}
	return &Result{Kind: KindTree, Tree: root}, nil
}

// Sysctl parses sysctl.conf-style files. Dotted keys expand into nested
// tree paths so that rules can address net/ipv4/ip_forward naturally.
type Sysctl struct{}

var _ Lens = (*Sysctl)(nil)

// NewSysctl returns the sysctl lens.
func NewSysctl() *Sysctl { return &Sysctl{} }

// Name implements Lens.
func (l *Sysctl) Name() string { return "sysctl" }

// Parse implements Lens.
func (l *Sysctl) Parse(path string, content []byte) (*Result, error) {
	root := configtree.New(path)
	root.File = path
	for r := newLineReader(content); r.scan("#", false); {
		line := r.text
		if line[0] == ';' {
			continue
		}
		key, value, ok := splitKeyValue(line, "=")
		if !ok {
			return nil, parseErrorf("sysctl", path, r.start, "expected 'key = value', got %q", line)
		}
		treePath := strings.ReplaceAll(key, ".", "/")
		node, err := root.Put(treePath, value)
		if err != nil {
			return nil, parseErrorf("sysctl", path, r.start, "key %q: %v", key, err)
		}
		node.Line = r.start
	}
	return &Result{Kind: KindTree, Tree: root}, nil
}

// SSHD parses OpenSSH server/client configuration: whitespace-separated
// "Keyword arguments" lines, with Match blocks becoming sections.
type SSHD struct{}

var _ Lens = (*SSHD)(nil)

// NewSSHD returns the sshd_config lens.
func NewSSHD() *SSHD { return &SSHD{} }

// Name implements Lens.
func (l *SSHD) Name() string { return "sshd" }

// Parse implements Lens.
func (l *SSHD) Parse(path string, content []byte) (*Result, error) {
	root := configtree.New(path)
	root.File = path
	current := root
	for r := newLineReader(content); r.scan("#", false); {
		line := r.text
		key := firstField(line)
		value := strings.TrimSpace(line[len(key):])
		// sshd_config also accepts "Key=value".
		if eq := strings.IndexByte(key, '='); eq > 0 {
			value = key[eq+1:] + value
			key = key[:eq]
		} else if strings.HasPrefix(value, "=") {
			value = strings.TrimSpace(value[1:])
		}
		if strings.EqualFold(key, "Match") {
			section := root.Section("Match")
			section.Value = value
			section.Line = r.start
			current = section
			continue
		}
		node := current.Add(key, value)
		node.Line = r.start
	}
	return &Result{Kind: KindTree, Tree: root}, nil
}

// Properties parses Java-style .properties files (key=value or key:value,
// backslash escapes for separators).
type Properties struct{}

var _ Lens = (*Properties)(nil)

// NewProperties returns the properties lens.
func NewProperties() *Properties { return &Properties{} }

// Name implements Lens.
func (l *Properties) Name() string { return "properties" }

// Parse implements Lens.
func (l *Properties) Parse(path string, content []byte) (*Result, error) {
	root := configtree.New(path)
	root.File = path
	r := newLineReader(content)
	for raw, ok := r.next(); ok; raw, ok = r.next() {
		// A comment line ends with its own line, before any joining; a
		// joined entry takes the number of the line it ends on.
		line := strings.TrimSpace(raw)
		if line == "" || line[0] == '#' || line[0] == '!' {
			continue
		}
		line = r.join(line, "")
		sepIdx := -1
		for j := 0; j < len(line); j++ {
			c := line[j]
			if c == '\\' {
				j++
				continue
			}
			if c == '=' || c == ':' {
				sepIdx = j
				break
			}
		}
		var key, value string
		if sepIdx < 0 {
			key, value = line, ""
		} else {
			key = strings.TrimSpace(line[:sepIdx])
			value = strings.TrimSpace(line[sepIdx+1:])
		}
		key = propertiesUnescape.Replace(key)
		node := root.Add(key, value)
		node.Line = r.n
	}
	return &Result{Kind: KindTree, Tree: root}, nil
}

var propertiesUnescape = strings.NewReplacer(`\=`, "=", `\:`, ":", `\ `, " ")

// splitKeyValue splits a trimmed, non-empty line at the separator;
// sep=="" means whitespace.
func splitKeyValue(line, sep string) (key, value string, ok bool) {
	if sep == "" {
		key = firstField(line)
		return key, strings.TrimSpace(line[len(key):]), true
	}
	idx := strings.Index(line, sep)
	if idx <= 0 {
		return "", "", false
	}
	return strings.TrimSpace(line[:idx]), strings.TrimSpace(line[idx+len(sep):]), true
}

func displaySep(sep string) string {
	if sep == "" {
		return " "
	}
	return sep
}
