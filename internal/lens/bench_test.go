package lens

import (
	"fmt"
	"strings"
	"testing"

	"configvalidator/internal/configtree"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/schema"
)

func benchParse(b *testing.B, l Lens, path, src string) {
	b.Helper()
	content := []byte(src)
	b.ReportAllocs()
	b.SetBytes(int64(len(content)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Parse(path, content); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseNginx(b *testing.B) {
	benchParse(b, NewNginx(), "nginx.conf", sampleNginx)
}

func BenchmarkParseSSHD(b *testing.B) {
	benchParse(b, NewSSHD(), "sshd_config", strings.Repeat(sampleSSHD, 4))
}

func BenchmarkParseSysctl(b *testing.B) {
	benchParse(b, NewSysctl(), "sysctl.conf", strings.Repeat(sampleSysctl, 8))
}

func BenchmarkParseINI(b *testing.B) {
	benchParse(b, NewINI("mysql"), "my.cnf", sampleMyCnf)
}

func BenchmarkParseFstab(b *testing.B) {
	benchParse(b, NewFstab(), "/etc/fstab", strings.Repeat(sampleFstab, 8))
}

func BenchmarkParseAudit(b *testing.B) {
	benchParse(b, NewAudit(), "audit.rules", strings.Repeat(sampleAudit, 8))
}

func BenchmarkParseApache(b *testing.B) {
	benchParse(b, NewApache(), "apache2.conf", strings.Repeat(benchHostFile(b, "/etc/apache2/apache2.conf"), 8))
}

func BenchmarkParseModprobe(b *testing.B) {
	benchParse(b, NewModprobe(), "cis.conf", strings.Repeat(benchHostFile(b, "/etc/modprobe.d/cis.conf"), 8))
}

func BenchmarkParseCrontab(b *testing.B) {
	benchParse(b, NewCrontab(), "/etc/crontab", strings.Repeat(benchHostFile(b, "/etc/crontab"), 8))
}

func BenchmarkParsePasswd(b *testing.B) {
	benchParse(b, NewPasswd(), "/etc/passwd", strings.Repeat(benchHostFile(b, "/etc/passwd"), 8))
}

const sampleProperties = `# server.properties
server.port=8443
server.ssl.enabled=true
server.ssl.key-store=/etc/app/keystore.p12
logging.level.root: INFO
app.banner=first line \
    second line \
    third line
path.with\=equals=v
! legacy comment
flag.only
`

func BenchmarkParseProperties(b *testing.B) {
	benchParse(b, NewProperties(), "server.properties", strings.Repeat(sampleProperties, 8))
}

const sampleKeyValue = `# app.conf
listen = 0.0.0.0:8080
workers=4
; legacy comment
log_level = info
tls_cert = /etc/app/tls.crt # inline comment
`

func BenchmarkParseKeyValue(b *testing.B) {
	benchParse(b, NewKeyValue("keyvalue", "="), "app.conf", strings.Repeat(sampleKeyValue, 8))
}

func BenchmarkRenderNginx(b *testing.B) {
	l := NewNginx()
	res, err := l.Parse("nginx.conf", []byte(sampleNginx))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Render(res.Tree); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8a: natural-format parsing vs forced conversion (DESIGN.md) ---

// tableToTree converts a schema table into an equivalent tree, the forced
// conversion the natural-format ablation measures: rows become numbered
// sections whose children are column nodes.
func tableToTree(t *schema.Table) *configtree.Node {
	root := configtree.New(t.Name)
	root.File = t.File
	for i, row := range t.Rows {
		rowNode := root.Section("row")
		rowNode.Value = fmt.Sprintf("%d", i+1)
		for c, col := range t.Columns {
			rowNode.Add(col, row[c])
		}
	}
	return root
}

// treeToTable flattens a tree into a two-column (path, value) table, the
// inverse direction of the natural-format ablation.
func treeToTable(n *configtree.Node) *schema.Table {
	t := schema.New(n.Label, "path", "value")
	t.File = n.File
	n.Walk(func(p string, node *configtree.Node) bool {
		if node == n {
			return true
		}
		rel := strings.TrimPrefix(p, n.Label+"/")
		_ = t.AddRow(rel, node.Value)
		return true
	})
	return t
}

// benchHostFile returns a file of the Table-2 benchmark host, with the
// application configs UbuntuHost adds to its system services.
func benchHostFile(b *testing.B, path string) string {
	host, _ := fixtures.UbuntuHost("bench-host", fixtures.Profile{Seed: 1234, MisconfigRate: 0.2})
	content, err := host.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	return string(content)
}

// BenchmarkAblationNaturalSchema queries the fstab table directly (the
// paper's chosen design: keep the natural format).
func BenchmarkAblationNaturalSchema(b *testing.B) {
	content := []byte(benchHostFile(b, "/etc/fstab"))
	fstab := NewFstab()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fstab.Parse("/etc/fstab", content)
		if err != nil {
			b.Fatal(err)
		}
		out, err := res.Table.Select(schema.Query{Constraints: "dir = ?", Args: []string{"/tmp"}})
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

// BenchmarkAblationConvertedSchema force-converts the table to a tree and
// answers the same question through tree queries (the rejected design).
func BenchmarkAblationConvertedSchema(b *testing.B) {
	content := []byte(benchHostFile(b, "/etc/fstab"))
	fstab := NewFstab()
	rows, dir := configtree.Compile("row"), configtree.Compile("dir")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fstab.Parse("/etc/fstab", content)
		if err != nil {
			b.Fatal(err)
		}
		tree := tableToTree(res.Table)
		found := false
		for _, row := range tree.AppendFind(nil, rows) {
			for _, d := range row.AppendFind(nil, dir) {
				if d.Value == "/tmp" {
					found = true
				}
			}
		}
		_ = found
	}
}
