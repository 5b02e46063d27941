package crawler

import (
	"strings"
	"testing"

	"configvalidator/internal/entity"
	"configvalidator/internal/lens"
)

func testEntity() *entity.Mem {
	m := entity.NewMem("host", entity.TypeHost)
	m.AddFile("/etc/ssh/sshd_config", []byte("PermitRootLogin no\n"), entity.WithMode(0o600))
	m.AddFile("/etc/sysctl.conf", []byte("net.ipv4.ip_forward = 0\n"))
	m.AddFile("/etc/nginx/nginx.conf", []byte("user www-data;\nhttp {\n  server {\n    listen 443 ssl;\n  }\n}\n"))
	m.AddFile("/etc/fstab", []byte("/dev/sda1 / ext4 defaults 0 1\n"))
	m.AddFile("/etc/motd", []byte("welcome\n")) // no lens
	m.AddFile("/etc/bad/nginx/nginx.conf", []byte("server {\n"))
	return m
}

func TestCrawlPaths(t *testing.T) {
	c := New(nil, Options{})
	configs, err := c.CrawlPaths(testEntity(), []string{"/etc"})
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*FileConfig, len(configs))
	for _, fc := range configs {
		byPath[fc.Path] = fc
	}
	sshd, ok := byPath["/etc/ssh/sshd_config"]
	if !ok || sshd.LensName != "sshd" || sshd.Err != nil {
		t.Fatalf("sshd config = %+v", sshd)
	}
	if n, ok := sshd.Result.Tree.Child("PermitRootLogin"); !ok || n.Value != "no" {
		t.Errorf("PermitRootLogin = %+v", n)
	}
	fstab, ok := byPath["/etc/fstab"]
	if !ok || fstab.Result.Kind != lens.KindSchema {
		t.Fatalf("fstab = %+v", fstab)
	}
	if _, ok := byPath["/etc/motd"]; ok {
		t.Error("unrecognized file included by default")
	}
	// Metadata captured.
	if sshd.Info.Perm() != 0o600 {
		t.Errorf("sshd perm = %o", sshd.Info.Perm())
	}
	// Broken file recorded with error, not dropped, not fatal.
	bad, ok := byPath["/etc/bad/nginx/nginx.conf"]
	if !ok || bad.Err == nil || bad.Result != nil {
		t.Errorf("broken config = %+v", bad)
	}
}

func TestCrawlMissingAndOverlappingPaths(t *testing.T) {
	c := New(nil, Options{})
	configs, err := c.CrawlPaths(testEntity(), []string{"/etc/ssh", "/etc/ssh", "/etc", "/no/such/dir"})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, fc := range configs {
		if fc.Path == "/etc/ssh/sshd_config" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("sshd_config crawled %d times", count)
	}
}

func TestCrawlSortedOutput(t *testing.T) {
	c := New(nil, Options{})
	configs, err := c.CrawlPaths(testEntity(), []string{"/etc"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(configs); i++ {
		if configs[i-1].Path >= configs[i].Path {
			t.Errorf("output not sorted at %d: %s >= %s", i, configs[i-1].Path, configs[i].Path)
		}
	}
}

func TestCrawlMaxFileSize(t *testing.T) {
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/sysctl.conf", []byte(strings.Repeat("net.ipv4.ip_forward = 0\n", 100)))
	c := New(nil, Options{MaxFileSize: 10})
	configs, err := c.CrawlPaths(m, []string{"/etc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 1 || configs[0].Err == nil {
		t.Errorf("oversized file handling = %+v", configs)
	}
	if !strings.Contains(configs[0].Err.Error(), "exceeds limit") {
		t.Errorf("err = %v", configs[0].Err)
	}
}

func TestCrawlFilePathDirectly(t *testing.T) {
	// A search path can be a single file, as manifests sometimes list the
	// exact config file.
	c := New(nil, Options{})
	configs, err := c.CrawlPaths(testEntity(), []string{"/etc/sysctl.conf"})
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 1 || configs[0].LensName != "sysctl" {
		t.Errorf("configs = %+v", configs)
	}
}

func TestDefaultRegistryUsedWhenNil(t *testing.T) {
	c := New(nil, Options{})
	if c.registry == nil {
		t.Fatal("nil registry")
	}
	if l, ok := c.registry.ForFile("/etc/nginx/nginx.conf"); !ok || l.Name() != "nginx" {
		t.Error("default registry missing nginx lens")
	}
}
