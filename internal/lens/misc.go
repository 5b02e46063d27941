package lens

import (
	"strings"

	"configvalidator/internal/schema"
)

// NewHosts returns the /etc/hosts lens: a schema table with columns
// (address, hostname, aliases). Extra host names fold into aliases.
func NewHosts() *Tabular {
	l := NewTabular("hosts", "", 2, "address", "hostname", "aliases")
	l.lastCatchAll = true
	return l
}

// NewResolv returns the /etc/resolv.conf lens: a schema table with columns
// (directive, value) — nameserver/search/options/domain lines.
func NewResolv() *Tabular {
	l := NewTabular("resolv", "", 2, "directive", "value")
	l.lastCatchAll = true
	return l
}

// NewLimits returns the /etc/security/limits.conf lens: columns
// (domain, type, item, value), e.g. "* hard core 0" for the CIS rule that
// restricts core dumps.
func NewLimits() *Tabular {
	return NewTabular("limits", "", 4, "domain", "type", "item", "value")
}

// Crontab parses system crontab files (/etc/crontab, /etc/cron.d/*):
// five time fields, a user, and the command, plus KEY=value environment
// lines which are recorded with kind "env".
//
// Columns: kind (job|env), minute, hour, dom, month, dow, user, command.
type Crontab struct{}

var _ Lens = (*Crontab)(nil)

// NewCrontab returns the system crontab lens.
func NewCrontab() *Crontab { return &Crontab{} }

// Name implements Lens.
func (l *Crontab) Name() string { return "crontab" }

// Parse implements Lens.
func (l *Crontab) Parse(path string, content []byte) (*Result, error) {
	t := schema.New(path, "kind", "minute", "hour", "dom", "month", "dow", "user", "command")
	t.File = path
	for r := newLineReader(content); r.scan("#", false); {
		line := r.text
		if idx := strings.IndexByte(line, '='); idx > 0 && !strings.ContainsAny(line[:idx], " \t*") {
			if err := t.AddRow("env", "", "", "", "", "", "", line); err != nil {
				return nil, parseErrorf("crontab", path, r.start, "%v", err)
			}
			continue
		}
		parts := fields(line)
		if len(parts) < 7 {
			return nil, parseErrorf("crontab", path, r.start, "expected 'm h dom mon dow user command', got %q", line)
		}
		command := strings.Join(parts[6:], " ")
		row := []string{"job", parts[0], parts[1], parts[2], parts[3], parts[4], parts[5], command}
		if err := t.AddRow(row...); err != nil {
			return nil, parseErrorf("crontab", path, r.start, "%v", err)
		}
	}
	return &Result{Kind: KindSchema, Table: t}, nil
}
