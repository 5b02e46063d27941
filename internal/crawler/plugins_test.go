package crawler

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"configvalidator/internal/entity"
)

func TestWithPluginsFallback(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/mysql/my.cnf", []byte("[mysqld]\nssl-ca = /etc/mysql/ca.pem\nssl-cert = /etc/mysql/crt.pem\n"))
	wrapped := WithPlugins(m, DefaultPlugins()...)

	out, err := wrapped.RunFeature("mysql.ssl")
	if err != nil || !strings.Contains(out, "have_ssl YES") {
		t.Errorf("synthesized mysql.ssl = %q, %v", out, err)
	}
	// Unknown features still error.
	if _, err := wrapped.RunFeature("nope"); !errors.Is(err, entity.ErrNoFeature) {
		t.Errorf("unknown feature err = %v", err)
	}
}

func TestNativeFeatureWins(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/mysql/my.cnf", []byte("[mysqld]\nssl-ca = /a\nssl-cert = /b\n"))
	m.SetFeature("mysql.ssl", "have_ssl DISABLED (live answer)\n")
	wrapped := WithPlugins(m, DefaultPlugins()...)
	out, err := wrapped.RunFeature("mysql.ssl")
	if err != nil || !strings.Contains(out, "live answer") {
		t.Errorf("native feature overridden: %q, %v", out, err)
	}
}

func TestMySQLSSLPluginDisabledAndAbsent(t *testing.T) {
	plugin := MySQLSSLPlugin()
	noSSL := entity.NewMem("h", entity.TypeHost)
	noSSL.AddFile("/etc/mysql/my.cnf", []byte("[mysqld]\nuser = mysql\n"))
	out, err := plugin.Synthesize(noSSL)
	if err != nil || !strings.Contains(out, "DISABLED") {
		t.Errorf("no-ssl config = %q, %v", out, err)
	}
	empty := entity.NewMem("h", entity.TypeHost)
	if _, err := plugin.Synthesize(empty); !errors.Is(err, entity.ErrNoFeature) {
		t.Errorf("absent mysql = %v", err)
	}
}

// TestMySQLSSLPluginReadsTheTree requires the plugin to agree with the
// tree rules on ssl-ca and ssl-cert: keys in comments or outside [mysqld]
// do not enable SSL, and a file the INI lens rejects is an error, not a
// missing feature.
func TestMySQLSSLPluginReadsTheTree(t *testing.T) {
	for _, tt := range []struct{ name, cnf, want string }{
		{"commented out", "[mysqld]\n# ssl-ca = /etc/mysql/ca.pem\n# ssl-cert = /etc/mysql/server-cert.pem\n", "have_ssl DISABLED"},
		{"other section", "[client]\nssl-ca = /a\nssl-cert = /b\n", "have_ssl DISABLED"},
		{"one key", "[mysqld]\nssl-ca = /a\n", "have_ssl DISABLED"},
		{"both keys", "[mysqld]\nssl-ca = /a\n[mysqld]\nssl-cert = /b ; trailing\n", "have_ssl YES"},
	} {
		m := entity.NewMem("h", entity.TypeHost)
		m.AddFile("/etc/mysql/my.cnf", []byte(tt.cnf))
		out, err := MySQLSSLPlugin().Synthesize(m)
		if err != nil || !strings.HasPrefix(out, tt.want+"\n") {
			t.Errorf("%s: mysql.ssl = %q, %v; want %s", tt.name, out, err, tt.want)
		}
	}
	bad := entity.NewMem("h", entity.TypeHost)
	bad.AddFile("/etc/mysql/my.cnf", []byte("[mysqld\nssl-ca = /a\n"))
	if _, err := MySQLSSLPlugin().Synthesize(bad); err == nil || errors.Is(err, entity.ErrNoFeature) {
		t.Errorf("unparseable my.cnf: err = %v, want a parse error", err)
	}
}

func TestSysctlRuntimePlugin(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/sysctl.conf", []byte("# comment\nnet.ipv4.ip_forward = 0\n\nkernel.randomize_va_space = 2\n"))
	out, err := SysctlRuntimePlugin().Synthesize(m)
	if err != nil {
		t.Fatal(err)
	}
	want := "net.ipv4.ip_forward = 0\nkernel.randomize_va_space = 2\n"
	if out != want {
		t.Errorf("out = %q", out)
	}
	empty := entity.NewMem("h", entity.TypeHost)
	if _, err := SysctlRuntimePlugin().Synthesize(empty); !errors.Is(err, entity.ErrNoFeature) {
		t.Errorf("absent sysctl.conf = %v", err)
	}
}

func TestFeaturesUnion(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/sysctl.conf", []byte("net.ipv4.ip_forward = 0\n"))
	m.SetFeature("native.feature", "x")
	wrapped := WithPlugins(m, DefaultPlugins()...)
	got := wrapped.Features()
	// mysql.ssl does not apply (no MySQL config); sysctl.runtime does.
	want := []string{"native.feature", "sysctl.runtime"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("features = %v, want %v", got, want)
	}
	// Entity contract is preserved through the wrapper.
	if wrapped.Name() != "h" || wrapped.Type() != entity.TypeHost {
		t.Error("identity lost through wrapper")
	}
	if _, err := wrapped.ReadFile("/etc/sysctl.conf"); err != nil {
		t.Error(err)
	}
	if _, err := wrapped.Stat("/etc/sysctl.conf"); err != nil {
		t.Error(err)
	}
	if db, err := wrapped.Packages(); err != nil || db == nil {
		t.Error(err)
	}
	count := 0
	if err := wrapped.Walk("/etc", func(entity.FileInfo) error { count++; return nil }); err != nil || count != 1 {
		t.Errorf("walk through wrapper: %d, %v", count, err)
	}
}

func TestWithPluginsNoopForEmptyList(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	if WithPlugins(m) != entity.Entity(m) {
		t.Error("empty plugin list should return the entity unchanged")
	}
}
