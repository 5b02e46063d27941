package lens

import (
	"strings"
	"testing"

	"configvalidator/internal/configtree"
	"configvalidator/internal/schema"
)

// findAll returns the nodes path matches in tree.
func findAll(tree *configtree.Node, path string) []*configtree.Node {
	return tree.AppendFind(nil, configtree.Compile(path))
}

// nodeAt returns the first node path matches in tree.
func nodeAt(tree *configtree.Node, path string) (*configtree.Node, bool) {
	if nodes := findAll(tree, path); len(nodes) > 0 {
		return nodes[0], true
	}
	return nil, false
}

// valueAt returns the value of the first node path matches in tree.
func valueAt(tree *configtree.Node, path string) (string, bool) {
	if n, ok := nodeAt(tree, path); ok {
		return n.Value, true
	}
	return "", false
}

// valuesAt returns the values of every node path matches in tree.
func valuesAt(tree *configtree.Node, path string) []string {
	var out []string
	for _, n := range findAll(tree, path) {
		out = append(out, n.Value)
	}
	return out
}

// sel builds a one-constraint query with placeholder args.
func sel(constraints string, args ...string) schema.Query {
	return schema.Query{Constraints: constraints, Args: args}
}

func parseWith(t *testing.T, l Lens, path, content string) *Result {
	t.Helper()
	res, err := l.Parse(path, []byte(content))
	if err != nil {
		t.Fatalf("%s.Parse(%s): %v", l.Name(), path, err)
	}
	switch res.Kind {
	case KindTree:
		if res.Tree == nil {
			t.Fatal("tree result has nil Tree")
		}
	case KindSchema:
		if res.Table == nil {
			t.Fatal("schema result has nil Table")
		}
	default:
		t.Fatalf("result kind %v", res.Kind)
	}
	return res
}

func TestRegistrySelection(t *testing.T) {
	r := Default()
	tests := []struct {
		path string
		lens string
	}{
		{"/etc/nginx/nginx.conf", "nginx"},
		{"/etc/nginx/sites-enabled/default", "nginx"},
		{"/etc/apache2/apache2.conf", "apache"},
		{"/etc/mysql/my.cnf", "mysql"},
		{"/etc/hadoop/core-site.xml", "hadoop"},
		{"/etc/ssh/sshd_config", "sshd"},
		{"/etc/sysctl.conf", "sysctl"},
		{"/etc/sysctl.d/99-custom.conf", "sysctl"},
		{"/etc/fstab", "fstab"},
		{"/proc/mounts", "mounts"},
		{"/etc/passwd", "passwd"},
		{"/etc/group", "group"},
		{"/etc/audit/audit.rules", "audit"},
		{"/etc/modprobe.d/blacklist.conf", "modprobe"},
		{"/etc/docker/daemon.json", "dockerdaemon"},
		{"/opt/app/config.json", "json"},
		{"/opt/app/server.properties", "properties"},
		{"/opt/app/app.ini", "ini"},
	}
	for _, tt := range tests {
		l, ok := r.ForFile(tt.path)
		if !ok {
			t.Errorf("no lens for %s", tt.path)
			continue
		}
		if l.Name() != tt.lens {
			t.Errorf("lens for %s = %s, want %s", tt.path, l.Name(), tt.lens)
		}
	}
	if _, ok := r.ForFile("/bin/ls"); ok {
		t.Error("unexpected lens for /bin/ls")
	}
}

func TestRegistryParseUnknown(t *testing.T) {
	r := Default()
	if _, err := r.Parse("/no/lens/for.this", nil); err == nil {
		t.Error("expected error for unknown file type")
	}
}

const sampleNginx = `
user www-data;
worker_processes auto;

http {
    include /etc/nginx/mime.types;
    server {
        listen 80;
        server_name plain.example.com;
    }
    server {
        listen 443 ssl;
        ssl_protocols TLSv1.2 TLSv1.3;
        ssl_certificate "/etc/ssl/cert.pem";
        location /api {
            proxy_pass http://backend;
        }
    }
}
`

func TestNginxLens(t *testing.T) {
	res := parseWith(t, NewNginx(), "nginx.conf", sampleNginx)
	tree := res.Tree
	if v, _ := valueAt(tree, "user"); v != "www-data" {
		t.Errorf("user = %q", v)
	}
	listens := valuesAt(tree, "http/server/listen")
	if len(listens) != 2 || listens[1] != "443 ssl" {
		t.Errorf("listens = %v", listens)
	}
	if v, _ := valueAt(tree, "http/server[2]/ssl_protocols"); v != "TLSv1.2 TLSv1.3" {
		t.Errorf("ssl_protocols = %q", v)
	}
	// Quoted argument is unquoted.
	if v, _ := valueAt(tree, "http/server[2]/ssl_certificate"); v != "/etc/ssl/cert.pem" {
		t.Errorf("ssl_certificate = %q", v)
	}
	// Block arguments stored as section value.
	loc, ok := nodeAt(tree, "http/server[2]/location")
	if !ok || loc.Value != "/api" {
		t.Errorf("location = %+v", loc)
	}
	if v, _ := valueAt(tree, "http/server[2]/location/proxy_pass"); v != "http://backend" {
		t.Errorf("proxy_pass = %q", v)
	}
}

func TestNginxLensErrors(t *testing.T) {
	tests := []struct{ name, src string }{
		{"missing semicolon", "user www-data"},
		{"unbalanced close", "}"},
		{"unclosed block", "http {"},
		{"brace without name", "{ }"},
		{"missing semi in block", "http { user x }"},
		{"unclosed quote ending in backslash", `user "x\`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewNginx().Parse("f", []byte(tt.src)); err == nil {
				t.Errorf("parse of %q succeeded", tt.src)
			}
		})
	}
}

const sampleApache = `
ServerRoot "/etc/apache2"
Timeout 300

<Directory />
    Options FollowSymLinks
    AllowOverride None
    Require all denied
</Directory>

<VirtualHost *:80>
    ServerAdmin webmaster@localhost
    <Directory /var/www/html>
        Options Indexes
    </Directory>
</VirtualHost>
`

func TestApacheLens(t *testing.T) {
	res := parseWith(t, NewApache(), "apache2.conf", sampleApache)
	tree := res.Tree
	if v, _ := valueAt(tree, "ServerRoot"); v != `"/etc/apache2"` {
		t.Errorf("ServerRoot = %q", v)
	}
	if v, _ := valueAt(tree, "Directory[1]/AllowOverride"); v != "None" {
		t.Errorf("AllowOverride = %q", v)
	}
	vh, ok := nodeAt(tree, "VirtualHost")
	if !ok || vh.Value != "*:80" {
		t.Fatalf("VirtualHost = %+v", vh)
	}
	if v, _ := valueAt(tree, "VirtualHost/Directory/Options"); v != "Indexes" {
		t.Errorf("nested Options = %q", v)
	}
}

func TestApacheLensErrors(t *testing.T) {
	tests := []struct{ name, src string }{
		{"mismatched close", "<Directory />\n</VirtualHost>"},
		{"unclosed section", "<Directory />"},
		{"stray close", "</Directory>"},
		{"malformed tag", "<Directory /"},
		{"empty tag", "<>"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewApache().Parse("f", []byte(tt.src)); err == nil {
				t.Errorf("parse of %q succeeded", tt.src)
			}
		})
	}
}

const sampleMyCnf = `
[client]
port = 3306

[mysqld]
user = mysql
bind-address = 127.0.0.1
skip-networking
ssl-ca = "/etc/mysql/cacert.pem"
ssl-cert = /etc/mysql/server-cert.pem
!includedir /etc/mysql/conf.d/
`

func TestINILens(t *testing.T) {
	res := parseWith(t, NewINI("mysql"), "my.cnf", sampleMyCnf)
	tree := res.Tree
	if v, _ := valueAt(tree, "client/port"); v != "3306" {
		t.Errorf("client/port = %q", v)
	}
	if v, _ := valueAt(tree, "mysqld/bind-address"); v != "127.0.0.1" {
		t.Errorf("bind-address = %q", v)
	}
	if _, ok := nodeAt(tree, "mysqld/skip-networking"); !ok {
		t.Error("bare flag key missing")
	}
	if v, _ := valueAt(tree, "mysqld/ssl-ca"); v != "/etc/mysql/cacert.pem" {
		t.Errorf("ssl-ca = %q (quotes should be stripped)", v)
	}
	if v, _ := valueAt(tree, "mysqld/#include"); v != "includedir /etc/mysql/conf.d/" {
		t.Errorf("#include = %q", v)
	}
}

func TestINILensErrors(t *testing.T) {
	if _, err := NewINI("ini").Parse("f", []byte("[unterminated\n")); err == nil {
		t.Error("unterminated section accepted")
	}
	if _, err := NewINI("ini").Parse("f", []byte("[]\n")); err == nil {
		t.Error("empty section accepted")
	}
}

const sampleSSHD = `
# OpenSSH server configuration
Port 22
PermitRootLogin no
PasswordAuthentication yes
Protocol 2

Match User sftpuser
    ChrootDirectory /srv/sftp
    X11Forwarding no
`

func TestSSHDLens(t *testing.T) {
	res := parseWith(t, NewSSHD(), "sshd_config", sampleSSHD)
	tree := res.Tree
	if v, _ := valueAt(tree, "PermitRootLogin"); v != "no" {
		t.Errorf("PermitRootLogin = %q", v)
	}
	if v, _ := valueAt(tree, "Port"); v != "22" {
		t.Errorf("Port = %q", v)
	}
	match, ok := nodeAt(tree, "Match")
	if !ok || match.Value != "User sftpuser" {
		t.Fatalf("Match = %+v", match)
	}
	if v, _ := valueAt(tree, "Match/ChrootDirectory"); v != "/srv/sftp" {
		t.Errorf("ChrootDirectory = %q", v)
	}
	// Directives inside Match do not leak to top level.
	if _, ok := tree.Child("ChrootDirectory"); ok {
		t.Error("Match-scoped directive leaked to top level")
	}
}

func TestSSHDEqualsSyntax(t *testing.T) {
	res := parseWith(t, NewSSHD(), "sshd_config", "PermitRootLogin=no\nPort = 2222\n")
	if v, _ := valueAt(res.Tree, "PermitRootLogin"); v != "no" {
		t.Errorf("PermitRootLogin = %q", v)
	}
	if v, _ := valueAt(res.Tree, "Port"); v != "2222" {
		t.Errorf("Port = %q", v)
	}
}

const sampleSysctl = `
# Kernel hardening
net.ipv4.ip_forward = 0
net.ipv4.conf.all.send_redirects = 0
kernel.randomize_va_space = 2
fs.suid_dumpable=0
`

func TestSysctlLens(t *testing.T) {
	res := parseWith(t, NewSysctl(), "sysctl.conf", sampleSysctl)
	tree := res.Tree
	if v, _ := valueAt(tree, "net/ipv4/ip_forward"); v != "0" {
		t.Errorf("ip_forward = %q", v)
	}
	if v, _ := valueAt(tree, "kernel/randomize_va_space"); v != "2" {
		t.Errorf("randomize_va_space = %q", v)
	}
	if v, _ := valueAt(tree, "fs/suid_dumpable"); v != "0" {
		t.Errorf("suid_dumpable (no spaces) = %q", v)
	}
	// Shared prefixes merge into one subtree.
	ipv4 := findAll(tree, "net/ipv4")
	if len(ipv4) != 1 {
		t.Errorf("net/ipv4 nodes = %d, want 1", len(ipv4))
	}
}

func TestSysctlLensError(t *testing.T) {
	if _, err := NewSysctl().Parse("f", []byte("not a sysctl line\n")); err == nil {
		t.Error("invalid sysctl line accepted")
	}
}

func TestKeyValueLens(t *testing.T) {
	res := parseWith(t, NewKeyValue("kv", "="), "app.conf", "a = 1\nb=2\n# comment\n")
	if v, _ := valueAt(res.Tree, "a"); v != "1" {
		t.Errorf("a = %q", v)
	}
	if v, _ := valueAt(res.Tree, "b"); v != "2" {
		t.Errorf("b = %q", v)
	}
	if _, err := NewKeyValue("kv", "=").Parse("f", []byte("novalue\n")); err == nil {
		t.Error("line without separator accepted")
	}
}

func TestPropertiesLens(t *testing.T) {
	src := "app.name=demo\napp.port: 8080\npath.with\\=equals=v\nmultiline=a\\\n  b\nflagonly\n"
	res := parseWith(t, NewProperties(), "server.properties", src)
	tree := res.Tree
	if v, _ := valueAt(tree, "app.name"); v != "demo" {
		t.Errorf("app.name = %q", v)
	}
	if v, _ := valueAt(tree, "app.port"); v != "8080" {
		t.Errorf("app.port = %q", v)
	}
	if v, _ := valueAt(tree, "path.with=equals"); v != "v" {
		t.Errorf("escaped key = %q", v)
	}
	if v, _ := valueAt(tree, "multiline"); v != "ab" {
		t.Errorf("multiline = %q", v)
	}
	if _, ok := tree.Child("flagonly"); !ok {
		t.Error("bare key missing")
	}
}

const sampleHadoop = `<?xml version="1.0"?>
<configuration>
  <property>
    <name>dfs.permissions.enabled</name>
    <value>true</value>
    <final>true</final>
  </property>
  <property>
    <name>hadoop.security.authentication</name>
    <value>kerberos</value>
  </property>
</configuration>
`

func TestHadoopXMLLens(t *testing.T) {
	res := parseWith(t, NewHadoopXML(), "core-site.xml", sampleHadoop)
	tree := res.Tree
	if v, _ := valueAt(tree, "dfs.permissions.enabled"); v != "true" {
		t.Errorf("dfs.permissions.enabled = %q", v)
	}
	if v, _ := valueAt(tree, "dfs.permissions.enabled/final"); v != "true" {
		t.Errorf("final = %q", v)
	}
	if v, _ := valueAt(tree, "hadoop.security.authentication"); v != "kerberos" {
		t.Errorf("authentication = %q", v)
	}
}

func TestHadoopXMLLensErrors(t *testing.T) {
	if _, err := NewHadoopXML().Parse("f", []byte("<configuration><property><value>1</value></property></configuration>")); err == nil {
		t.Error("property without name accepted")
	}
	if _, err := NewHadoopXML().Parse("f", []byte("not xml at all")); err == nil {
		t.Error("non-xml accepted")
	}
}

func TestJSONLens(t *testing.T) {
	src := `{
  "icc": false,
  "log-level": "info",
  "hosts": ["unix:///var/run/docker.sock", "tcp://0.0.0.0:2376"],
  "tlsverify": true,
  "default-ulimits": {"nofile": {"Soft": 1024}},
  "empty": [],
  "nothing": null
}`
	res := parseWith(t, NewJSON("dockerdaemon"), "daemon.json", src)
	tree := res.Tree
	if v, _ := valueAt(tree, "icc"); v != "false" {
		t.Errorf("icc = %q", v)
	}
	hosts := valuesAt(tree, "hosts")
	if len(hosts) != 2 || hosts[1] != "tcp://0.0.0.0:2376" {
		t.Errorf("hosts = %v", hosts)
	}
	if v, _ := valueAt(tree, "default-ulimits/nofile/Soft"); v != "1024" {
		t.Errorf("nested = %q", v)
	}
	if v, ok := valueAt(tree, "nothing"); !ok || v != "" {
		t.Errorf("null value = %q ok=%v", v, ok)
	}
	if _, err := NewJSON("json").Parse("f", []byte("{bad")); err == nil {
		t.Error("bad json accepted")
	}
}

const sampleFstab = `
# /etc/fstab
/dev/sda1  /      ext4  errors=remount-ro  0 1
/dev/sda2  /tmp   ext4  nodev,nosuid,noexec 0 2
tmpfs      /dev/shm tmpfs nodev,nosuid
`

func TestFstabLens(t *testing.T) {
	res := parseWith(t, NewFstab(), "/etc/fstab", sampleFstab)
	tbl := res.Table
	if tbl.Len() != 3 {
		t.Fatalf("rows = %d", tbl.Len())
	}
	if dir, ok := tbl.ColumnIndex("dir"); !ok || tbl.Rows[1][dir] != "/tmp" {
		t.Errorf("rows = %v", tbl.Rows)
	}
	// Optional trailing columns default to empty.
	if tbl.Rows[2][4] != "" || tbl.Rows[2][5] != "" {
		t.Errorf("optional fields = %v", tbl.Rows[2])
	}
	if _, err := NewFstab().Parse("f", []byte("/dev/sda1 /\n")); err == nil {
		t.Error("short fstab row accepted")
	}
}

const samplePasswd = `root:x:0:0:root:/root:/bin/bash
daemon:x:1:1:daemon:/usr/sbin:/usr/sbin/nologin
game:x:5:60:games,with,commas:/usr/games:/usr/sbin/nologin
`

func TestPasswdLens(t *testing.T) {
	res := parseWith(t, NewPasswd(), "/etc/passwd", samplePasswd)
	tbl := res.Table
	if tbl.Len() != 3 {
		t.Fatalf("rows = %d", tbl.Len())
	}
	out, err := tbl.Select(sel("uid = ?", "0"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Rows[0][0] != "root" {
		t.Errorf("uid=0 rows: %v", out.Rows)
	}
	if _, err := NewPasswd().Parse("f", []byte("tooshort:x:1\n")); err == nil {
		t.Error("short passwd row accepted")
	}
}

func TestGroupLens(t *testing.T) {
	src := "root:x:0:\nsudo:x:27:alice,bob\n"
	res := parseWith(t, NewGroup(), "/etc/group", src)
	tbl := res.Table
	if tbl.Len() != 2 {
		t.Fatalf("rows = %d", tbl.Len())
	}
	if tbl.Rows[1][3] != "alice,bob" {
		t.Errorf("members = %q", tbl.Rows[1][3])
	}
	if tbl.Rows[0][3] != "" {
		t.Errorf("empty members = %q", tbl.Rows[0][3])
	}
}

const sampleAudit = `
-D
-b 8192
-w /etc/passwd -p wa -k identity
-w /var/log/sudo.log -p wa -k actions
-a always,exit -F arch=b64 -S adjtimex -S settimeofday -k time-change
`

func TestAuditLens(t *testing.T) {
	res := parseWith(t, NewAudit(), "audit.rules", sampleAudit)
	tbl := res.Table
	if tbl.Len() != 5 {
		t.Fatalf("rows = %d\n%s", tbl.Len(), tbl)
	}
	watches, err := tbl.Select(sel("kind = ?", "watch"))
	if err != nil {
		t.Fatal(err)
	}
	if watches.Len() != 2 {
		t.Errorf("watch rows = %d", watches.Len())
	}
	pw, err := tbl.Select(sel("target = ?", "/etc/passwd"))
	if err != nil {
		t.Fatal(err)
	}
	if pw.Len() != 1 {
		t.Fatalf("passwd watch missing")
	}
	row := pw.Rows[0]
	if row[2] != "wa" || row[3] != "identity" {
		t.Errorf("perms/key = %q/%q", row[2], row[3])
	}
	syscallRows, err := tbl.Select(sel("kind = ?", "syscall"))
	if err != nil {
		t.Fatal(err)
	}
	if syscallRows.Len() != 1 || syscallRows.Rows[0][5] != "adjtimex,settimeofday" {
		t.Errorf("syscall row = %v", syscallRows.Rows)
	}
	if _, err := NewAudit().Parse("f", []byte("-w\n")); err == nil {
		t.Error("-w without argument accepted")
	}
}

func TestModprobeLens(t *testing.T) {
	src := "install cramfs /bin/true\nblacklist usb-storage\noptions snd-hda-intel model=dell\n"
	res := parseWith(t, NewModprobe(), "blacklist.conf", src)
	tbl := res.Table
	if tbl.Len() != 3 {
		t.Fatalf("rows = %d", tbl.Len())
	}
	cram, err := tbl.Select(sel("module = ?", "cramfs"))
	if err != nil {
		t.Fatal(err)
	}
	if cram.Len() != 1 || cram.Rows[0][0] != "install" || cram.Rows[0][2] != "/bin/true" {
		t.Errorf("cramfs row = %v", cram.Rows)
	}
	if _, err := NewModprobe().Parse("f", []byte("frobnicate xyz\n")); err == nil {
		t.Error("unknown directive accepted")
	}
	if _, err := NewModprobe().Parse("f", []byte("blacklist\n")); err == nil {
		t.Error("directive without module accepted")
	}
}

func TestTableToTreeRoundTrip(t *testing.T) {
	res := parseWith(t, NewFstab(), "/etc/fstab", sampleFstab)
	tree := tableToTree(res.Table)
	if v, _ := valueAt(tree, "row[2]/dir"); v != "/tmp" {
		t.Errorf("row[2]/dir = %q", v)
	}
	if got := len(findAll(tree, "row*")); got != 3 {
		t.Errorf("row sections = %d", got)
	}
}

func TestTreeToTable(t *testing.T) {
	res := parseWith(t, NewSysctl(), "sysctl.conf", sampleSysctl)
	tbl := treeToTable(res.Tree)
	out, err := tbl.Select(sel("path = ?", "net/ipv4/ip_forward"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Rows[0][1] != "0" {
		t.Errorf("flattened rows = %v", out.Rows)
	}
}

func TestKindString(t *testing.T) {
	if KindTree.String() != "tree" || KindSchema.String() != "schema" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind should include number")
	}
}

func TestParseErrorMessage(t *testing.T) {
	err := parseErrorf("nginx", "/etc/nginx/nginx.conf", 7, "boom %d", 1)
	msg := err.Error()
	for _, want := range []string{"nginx", "/etc/nginx/nginx.conf", ":7:", "boom 1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	err2 := parseErrorf("hadoop", "f", 0, "x")
	if strings.Contains(err2.Error(), ":0:") {
		t.Errorf("zero line should be omitted: %q", err2.Error())
	}
}
