package dockersim

import (
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"configvalidator/internal/entity"
	"configvalidator/internal/pkgdb"
)

var testTime = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

// findPackage looks a package up by name in db.
func findPackage(db *pkgdb.DB, name string) (pkgdb.Package, bool) {
	for _, p := range db.All() {
		if p.Name == name {
			return p, true
		}
	}
	return pkgdb.Package{}, false
}

func TestUnionLastLayerWins(t *testing.T) {
	img := NewBuilder("app", "v1").
		AddFile("/etc/app.conf", []byte("version=1\n"), 0o644).
		AddFile("/etc/app.conf", []byte("version=2\n"), 0o600).
		Build()
	m := img.Entity()
	data, err := m.ReadFile("/etc/app.conf")
	if err != nil || string(data) != "version=2\n" {
		t.Errorf("content = %q, %v", data, err)
	}
	fi, err := m.Stat("/etc/app.conf")
	if err != nil || fi.Perm() != 0o600 {
		t.Errorf("upper layer mode = %o, %v", fi.Perm(), err)
	}
}

func TestWhiteoutRemovesLowerFile(t *testing.T) {
	img := NewBuilder("app", "v1").
		AddFile("/etc/secret.key", []byte("sssh"), 0o600).
		Remove("/etc/secret.key").
		Build()
	m := img.Entity()
	if _, err := m.ReadFile("/etc/secret.key"); !errors.Is(err, entity.ErrNotExist) {
		t.Errorf("whiteout did not remove file: %v", err)
	}
}

func TestFileReappearsAfterWhiteout(t *testing.T) {
	img := NewBuilder("app", "v1").
		AddFile("/etc/a", []byte("1"), 0o644).
		Remove("/etc/a").
		AddFile("/etc/a", []byte("2"), 0o644).
		Build()
	data, err := img.Entity().ReadFile("/etc/a")
	if err != nil || string(data) != "2" {
		t.Errorf("re-added file = %q, %v", data, err)
	}
}

func TestOpaqueDirectoryHidesLowerContent(t *testing.T) {
	lower := Layer{
		CreatedBy: "lower",
		Entries: []FileEntry{
			{Path: "/opt/app/old1.conf", Data: []byte("x"), Mode: 0o644},
			{Path: "/opt/app/old2.conf", Data: []byte("y"), Mode: 0o644},
			{Path: "/opt/other/keep.conf", Data: []byte("z"), Mode: 0o644},
		},
	}
	upper := Layer{
		CreatedBy: "upper",
		Entries: []FileEntry{
			{Path: "/opt/app", Opaque: true, Mode: 0o755},
			{Path: "/opt/app/new.conf", Data: []byte("n"), Mode: 0o644},
		},
	}
	img := &Image{Repository: "a", Tag: "b", Layers: []Layer{lower, upper}}
	m := img.Entity()
	if _, err := m.ReadFile("/opt/app/old1.conf"); !errors.Is(err, entity.ErrNotExist) {
		t.Error("opaque dir should hide old1.conf")
	}
	if _, err := m.ReadFile("/opt/app/new.conf"); err != nil {
		t.Errorf("new.conf missing: %v", err)
	}
	if _, err := m.ReadFile("/opt/other/keep.conf"); err != nil {
		t.Errorf("sibling dir affected: %v", err)
	}
}

func TestPackageAccumulation(t *testing.T) {
	img := NewBuilder("app", "v1").
		InstallPackages(pkgdb.Package{Name: "nginx", Version: "1.10.0"}).
		InstallPackages(pkgdb.Package{Name: "curl", Version: "7.47.0"}).
		InstallPackages(pkgdb.Package{Name: "nginx", Version: "1.10.3"}). // upgrade
		Build()
	db, err := img.Entity().Packages()
	if err != nil {
		t.Fatal(err)
	}
	if len(db.All()) != 2 {
		t.Errorf("packages = %d", len(db.All()))
	}
	if p, _ := findPackage(db, "nginx"); p.Version != "1.10.3" {
		t.Errorf("nginx version = %s", p.Version)
	}
}

func TestImageConfigFeature(t *testing.T) {
	img := NewBuilder("web", "v2").
		User("app").
		Env("MODE=prod").
		Expose("443/tcp").
		Cmd("/usr/sbin/nginx", "-g", "daemon off;").
		Healthcheck("curl -f http://localhost/ || exit 1").
		Label("maintainer", "ops").
		Build()
	out, err := img.Entity().RunFeature("docker.image_config")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"User app", "ExposedPort 443/tcp", "Env MODE=prod", "Healthcheck curl"} {
		if !strings.Contains(out, want) {
			t.Errorf("image_config missing %q:\n%s", want, out)
		}
	}
	rootImg := NewBuilder("web", "v3").Build()
	out, _ = rootImg.Entity().RunFeature("docker.image_config")
	if !strings.Contains(out, "User root") || !strings.Contains(out, "Healthcheck none") {
		t.Errorf("defaults missing:\n%s", out)
	}
}

func TestImageIDDeterministicAndSensitive(t *testing.T) {
	build := func(content string) *Image {
		return NewBuilder("a", "1").AddFile("/f", []byte(content), 0o644).Build()
	}
	if build("x").ID() != build("x").ID() {
		t.Error("same inputs produced different IDs")
	}
	if build("x").ID() == build("y").ID() {
		t.Error("different content produced same ID")
	}
	withUser := NewBuilder("a", "1").AddFile("/f", []byte("x"), 0o644).User("app").Build()
	if build("x").ID() == withUser.ID() {
		t.Error("config change did not change ID")
	}
	if !strings.HasPrefix(build("x").ID(), "sha256:") {
		t.Error("ID should be sha256-prefixed")
	}
}

func TestBuilderFromInheritsAndIsolates(t *testing.T) {
	base := BaseUbuntu(testTime)
	child := NewBuilder("app", "v1").
		From(base).
		AddFile("/etc/nginx/nginx.conf", []byte("user www-data;\n"), 0o644).
		Env("CHILD=1").
		Build()
	if len(child.Layers) != len(base.Layers)+1 {
		t.Errorf("child layers = %d", len(child.Layers))
	}
	// Base files visible through the child.
	if _, err := child.Entity().ReadFile("/etc/passwd"); err != nil {
		t.Errorf("base file missing: %v", err)
	}
	// Mutating child config must not affect the base image.
	if len(base.Config.Env) != 0 {
		t.Errorf("base env mutated: %v", base.Config.Env)
	}
}

func TestContainerRWLayer(t *testing.T) {
	base := BaseUbuntu(testTime)
	c := NewContainer("c1", base)
	c.WriteFile("/etc/ssh/sshd_config", []byte("PermitRootLogin yes\n"), 0o600)
	c.RW.Entries = append(c.RW.Entries, FileEntry{Path: "/etc/fstab", Whiteout: true})
	m := c.Entity()

	data, err := m.ReadFile("/etc/ssh/sshd_config")
	if err != nil || !strings.Contains(string(data), "yes") {
		t.Errorf("rw overwrite = %q, %v", data, err)
	}
	if _, err := m.ReadFile("/etc/fstab"); !errors.Is(err, entity.ErrNotExist) {
		t.Error("rw whiteout failed")
	}
	// The image itself is untouched.
	imgData, err := base.Entity().ReadFile("/etc/ssh/sshd_config")
	if err != nil || strings.Contains(string(imgData), "yes") {
		t.Errorf("image mutated: %q, %v", imgData, err)
	}
}

func TestContainerInspectFeature(t *testing.T) {
	base := BaseUbuntu(testTime)
	c := NewContainer("c-prod-1", base)
	c.State = StateRunning
	c.Privileged = true
	c.HostNetwork = true
	c.Mounts = []string{"/var/run/docker.sock:/var/run/docker.sock"}
	c.SetFeature("mysql.ssl", "have_ssl YES")
	m := c.Entity()
	out, err := m.RunFeature("docker.inspect")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Id c-prod-1", "State running", "Privileged true", "HostNetwork true", "Mount /var/run/docker.sock"} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect missing %q:\n%s", want, out)
		}
	}
	if out, _ := m.RunFeature("mysql.ssl"); out != "have_ssl YES" {
		t.Errorf("custom feature = %q", out)
	}
	if m.Type() != entity.TypeContainer {
		t.Errorf("type = %v", m.Type())
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	img := BaseUbuntu(testTime)
	r.Push(img)
	got, err := r.Pull("ubuntu:16.04")
	if err != nil || got != img {
		t.Errorf("pull = %v, %v", got, err)
	}
	if _, err := r.Pull("missing:latest"); err == nil {
		t.Error("missing image pulled")
	}
	c, err := r.Run("web-1", "ubuntu:16.04")
	if err != nil || c.State != StateRunning {
		t.Errorf("run = %+v, %v", c, err)
	}
	if _, err := r.Run("web-1", "ubuntu:16.04"); err == nil {
		t.Error("duplicate container id accepted")
	}
	if _, err := r.Run("web-2", "missing:latest"); err == nil {
		t.Error("run from missing image accepted")
	}
	if imgs := r.Images(); len(imgs) != 1 || imgs[0] != "ubuntu:16.04" {
		t.Errorf("images = %v", imgs)
	}
}

func TestContainerStateString(t *testing.T) {
	if StateCreated.String() != "created" || StateRunning.String() != "running" || StateExited.String() != "exited" {
		t.Error("state names wrong")
	}
	if !strings.Contains(ContainerState(9).String(), "9") {
		t.Error("unknown state should include number")
	}
}

// TestQuickUnionEquivalence checks the union-fs property: materializing N
// layers equals sequentially applying each operation to a single map.
func TestQuickUnionEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	paths := []string{"/a", "/b", "/d/x", "/d/y", "/d/z"}
	for iter := 0; iter < 300; iter++ {
		var layers []Layer
		expect := make(map[string]string)
		numLayers := 1 + r.Intn(4)
		for l := 0; l < numLayers; l++ {
			var layer Layer
			ops := 1 + r.Intn(4)
			for o := 0; o < ops; o++ {
				p := paths[r.Intn(len(paths))]
				switch r.Intn(3) {
				case 0, 1:
					content := strconv.Itoa(r.Intn(100))
					layer.Entries = append(layer.Entries, FileEntry{Path: p, Data: []byte(content), Mode: 0o644})
					expect[p] = content
				case 2:
					layer.Entries = append(layer.Entries, FileEntry{Path: p, Whiteout: true})
					delete(expect, p)
				}
			}
			layers = append(layers, layer)
		}
		img := &Image{Repository: "q", Tag: "t", Layers: layers}
		m := img.Entity()
		for _, p := range paths {
			data, err := m.ReadFile(p)
			want, ok := expect[p]
			if ok {
				if err != nil || string(data) != want {
					t.Fatalf("iter %d: %s = %q (%v), want %q", iter, p, data, err, want)
				}
			} else if err == nil {
				t.Fatalf("iter %d: %s exists (%q), want absent", iter, p, data)
			}
		}
	}
}
