package crawler

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"configvalidator/internal/configtree"
	"configvalidator/internal/entity"
	"configvalidator/internal/lens"
	"configvalidator/internal/pkgdb"
)

// FeaturePlugin synthesizes a runtime feature from an entity's observable
// state — the Go analogue of the crawler's "application-specific plugins
// to extract runtime state" (paper §3.1). Plugins answer script rules on
// entities that cannot execute commands themselves (host directories,
// frames, tar archives): for example, deriving MySQL's SSL status from
// my.cnf when live `SHOW VARIABLES` output is unavailable.
type FeaturePlugin struct {
	// Name is the feature the plugin provides, e.g. "mysql.ssl".
	Name string
	// Synthesize derives the feature output from entity state. Returning
	// an error wrapping entity.ErrNoFeature means the plugin does not
	// apply to this entity.
	Synthesize func(e entity.Entity) (string, error)
}

// WithPlugins wraps an entity so that RunFeature falls back to the given
// plugins when the entity itself cannot answer. Native features always
// win: a live container's real docker.inspect output beats any synthesis.
func WithPlugins(e entity.Entity, plugins ...FeaturePlugin) entity.Entity {
	if len(plugins) == 0 {
		return e
	}
	byName := make(map[string]FeaturePlugin, len(plugins))
	for _, p := range plugins {
		byName[p.Name] = p
	}
	return &pluginEntity{base: e, plugins: byName}
}

type pluginEntity struct {
	base    entity.Entity
	plugins map[string]FeaturePlugin
}

var _ entity.Entity = (*pluginEntity)(nil)

// Name implements entity.Entity.
func (p *pluginEntity) Name() string { return p.base.Name() }

// Type implements entity.Entity.
func (p *pluginEntity) Type() entity.Type { return p.base.Type() }

// ReadFile implements entity.Entity.
func (p *pluginEntity) ReadFile(path string) ([]byte, error) { return p.base.ReadFile(path) }

// Stat implements entity.Entity.
func (p *pluginEntity) Stat(path string) (entity.FileInfo, error) { return p.base.Stat(path) }

// Walk implements entity.Entity.
func (p *pluginEntity) Walk(root string, fn func(entity.FileInfo) error) error {
	return p.base.Walk(root, fn)
}

// Packages implements entity.Entity.
func (p *pluginEntity) Packages() (*pkgdb.DB, error) { return p.base.Packages() }

// RunFeature implements entity.Entity: native first, then synthesis.
func (p *pluginEntity) RunFeature(name string) (string, error) {
	out, err := p.base.RunFeature(name)
	if err == nil {
		return out, nil
	}
	if !errors.Is(err, entity.ErrNoFeature) {
		return "", err
	}
	plugin, ok := p.plugins[name]
	if !ok {
		return "", err
	}
	return plugin.Synthesize(p.base)
}

// Features implements entity.Entity: the union of native features and
// plugins that apply to this entity.
func (p *pluginEntity) Features() []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range p.base.Features() {
		seen[f] = true
		out = append(out, f)
	}
	for name, plugin := range p.plugins {
		if seen[name] {
			continue
		}
		if _, err := plugin.Synthesize(p.base); err == nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// DefaultPlugins returns the built-in synthesis plugins, mirroring the
// crawler plugins the paper mentions for applications like MySQL.
func DefaultPlugins() []FeaturePlugin {
	return []FeaturePlugin{MySQLSSLPlugin(), SysctlRuntimePlugin()}
}

// MySQLSSLPlugin synthesizes the "mysql.ssl" feature (the `have_ssl`
// server variable) from the server configuration: the first readable of
// my.cnf and mysqld.cnf, parsed with the INI lens. SSL is considered
// available when a [mysqld] section sets ssl-ca and ssl-cert, the keys the
// tree rules check, so a commented-out key does not count.
func MySQLSSLPlugin() FeaturePlugin {
	ini := lens.NewINI("mysql")
	keys := []configtree.Query{configtree.Compile("mysqld/ssl-ca"), configtree.Compile("mysqld/ssl-cert")}
	return FeaturePlugin{
		Name: "mysql.ssl",
		Synthesize: func(e entity.Entity) (string, error) {
			for _, path := range []string{"/etc/mysql/my.cnf", "/etc/mysql/mysql.conf.d/mysqld.cnf"} {
				content, err := e.ReadFile(path)
				if err != nil {
					continue
				}
				res, err := ini.Parse(path, content)
				if err != nil {
					return "", fmt.Errorf("mysql.ssl: %w", err)
				}
				for _, q := range keys {
					if len(res.Tree.AppendFind(nil, q)) == 0 {
						return "have_ssl DISABLED\nhave_openssl DISABLED\n", nil
					}
				}
				return "have_ssl YES\nhave_openssl YES\n", nil
			}
			return "", fmt.Errorf("%w: mysql.ssl (no MySQL configuration found)", entity.ErrNoFeature)
		},
	}
}

// SysctlRuntimePlugin synthesizes "sysctl.runtime" — the `sysctl -a`
// analogue — from the persisted sysctl configuration. The paper (§2.1.3)
// notes sysctl.conf typically holds only a subset of the parameters
// `sysctl -a` reports; a synthesized view is correspondingly partial, and
// consumers needing the full runtime set must use a live feature.
func SysctlRuntimePlugin() FeaturePlugin {
	return FeaturePlugin{
		Name: "sysctl.runtime",
		Synthesize: func(e entity.Entity) (string, error) {
			content, err := e.ReadFile("/etc/sysctl.conf")
			if err != nil {
				return "", fmt.Errorf("%w: sysctl.runtime (no sysctl.conf)", entity.ErrNoFeature)
			}
			var b strings.Builder
			for _, line := range strings.Split(string(content), "\n") {
				line = strings.TrimSpace(line)
				if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, ";") {
					continue
				}
				b.WriteString(line)
				b.WriteByte('\n')
			}
			return b.String(), nil
		},
	}
}
