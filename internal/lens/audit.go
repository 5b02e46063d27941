package lens

import (
	"strings"

	"configvalidator/internal/schema"
)

// Audit parses Linux audit rules (/etc/audit/audit.rules). Each rule line
// becomes a table row with the flag-based fields decomposed positionally:
//
//	-w /etc/passwd -p wa -k identity
//	-a always,exit -F arch=b64 -S adjtimex -k time-change
//
// Columns:
//
//	kind    "watch" (-w), "syscall" (-a), "control" (-D/-b/-e/-f), "other"
//	target  watch path, or the -a action list (e.g. "always,exit")
//	perms   -p permissions for watch rules
//	key     -k audit key
//	fields  semicolon-joined -F filters
//	syscalls comma-joined -S syscall names
//	raw     the original rule text
type Audit struct{}

var _ Lens = (*Audit)(nil)

// NewAudit returns the audit.rules lens.
func NewAudit() *Audit { return &Audit{} }

// Name implements Lens.
func (l *Audit) Name() string { return "audit" }

// auditColumns is exported through the table shape; keep in sync with docs.
var auditColumns = []string{"kind", "target", "perms", "key", "fields", "syscalls", "raw"}

// Parse implements Lens.
func (l *Audit) Parse(path string, content []byte) (*Result, error) {
	t := schema.New(path, auditColumns...)
	t.File = path
	for r := newLineReader(content); r.scan("#", false); {
		row, err := parseAuditRule(r.text)
		if err != nil {
			return nil, parseErrorf("audit", path, r.start, "%v", err)
		}
		if err := t.AddRow(row...); err != nil {
			return nil, parseErrorf("audit", path, r.start, "%v", err)
		}
	}
	return &Result{Kind: KindSchema, Table: t}, nil
}

func parseAuditRule(line string) ([]string, error) {
	parts := fields(line)
	var kind, target, perms, key string
	var ruleFields, syscalls []string
	consumeArg := func(i int, flag string) (string, int, error) {
		if i+1 >= len(parts) {
			return "", i, parseArgError(flag)
		}
		return parts[i+1], i + 1, nil
	}
	for i := 0; i < len(parts); i++ {
		var err error
		var arg string
		switch parts[i] {
		case "-w":
			kind = "watch"
			arg, i, err = consumeArg(i, "-w")
			target = arg
		case "-a":
			kind = "syscall"
			arg, i, err = consumeArg(i, "-a")
			target = arg
		case "-p":
			arg, i, err = consumeArg(i, "-p")
			perms = arg
		case "-k":
			arg, i, err = consumeArg(i, "-k")
			key = arg
		case "-F":
			arg, i, err = consumeArg(i, "-F")
			ruleFields = append(ruleFields, arg)
		case "-S":
			arg, i, err = consumeArg(i, "-S")
			syscalls = append(syscalls, arg)
		case "-D", "-e", "-b", "-f", "-r", "--backlog_wait_time":
			if kind == "" {
				kind = "control"
				target = parts[i]
			}
			if i+1 < len(parts) && !strings.HasPrefix(parts[i+1], "-") {
				perms = parts[i+1]
				i++
			}
		default:
			if kind == "" {
				kind = "other"
				target = parts[i]
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if kind == "" {
		kind = "other"
	}
	return []string{
		kind, target, perms, key,
		strings.Join(ruleFields, ";"),
		strings.Join(syscalls, ","),
		line,
	}, nil
}

type auditArgError struct{ flag string }

func (e *auditArgError) Error() string { return "flag " + e.flag + " requires an argument" }

func parseArgError(flag string) error { return &auditArgError{flag: flag} }
