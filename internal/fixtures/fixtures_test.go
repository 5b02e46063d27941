package fixtures

import (
	"strings"
	"testing"

	"configvalidator/internal/crawler"
	"configvalidator/internal/engine"
	"configvalidator/internal/entity"
	"configvalidator/internal/rules"
)

func TestCleanHostPassesAllRules(t *testing.T) {
	// At misconfiguration rate 0 a generated host must pass every
	// built-in rule (no FAILs, no ERRORs).
	host, injected := UbuntuHost("clean-host", Profile{Seed: 1})
	if len(injected) != 0 {
		t.Fatalf("rate 0 injected %d misconfigurations", len(injected))
	}
	manifest, err := rules.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := engine.New(nil).Validate(host, manifest, engine.NewCachedSource(rules.Reader()), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Status == engine.StatusFail || r.Status == engine.StatusError {
			t.Errorf("[%s] %s/%s: %s (%s) file=%s", r.Status, r.ManifestEntity, ruleName(r), r.Message, r.Detail, r.File)
		}
	}
}

func ruleName(r *engine.Result) string {
	if r.Rule == nil {
		return "(parse)"
	}
	return r.Rule.Name
}

func TestExtendedManifestOnGeneratedHosts(t *testing.T) {
	manifest, err := rules.ExtendedManifest()
	if err != nil {
		t.Fatal(err)
	}
	reader := rules.ExtendedReader()
	eng := engine.New(nil)

	clean, _ := UbuntuHost("clean", Profile{Seed: 61})
	rep, err := eng.Validate(clean, manifest, engine.NewCachedSource(reader), nil)
	if err != nil {
		t.Fatal(err)
	}
	extendedSeen := 0
	for _, r := range rep.Results {
		if r.Rule != nil && r.Rule.HasTag("#extended") {
			extendedSeen++
		}
		if r.Status == engine.StatusFail || r.Status == engine.StatusError {
			t.Errorf("clean host: [%v] %s/%s: %s (%s)", r.Status, r.ManifestEntity, ruleName(r), r.Message, r.Detail)
		}
	}
	if extendedSeen != 12 {
		t.Errorf("extended rules evaluated = %d, want 12", extendedSeen)
	}

	dirty, _ := UbuntuHost("dirty", Profile{Seed: 62, MisconfigRate: 1})
	rep, err = eng.Validate(dirty, manifest, engine.NewCachedSource(reader), nil)
	if err != nil {
		t.Fatal(err)
	}
	extendedFails := 0
	for _, r := range rep.Results {
		if r.Status == engine.StatusFail && r.Rule != nil && r.Rule.HasTag("#extended") {
			extendedFails++
		}
	}
	if extendedFails < 6 {
		t.Errorf("extended failures on dirty host = %d", extendedFails)
	}
}

func TestDirtyHostFails(t *testing.T) {
	host, injected := UbuntuHost("dirty-host", Profile{Seed: 2, MisconfigRate: 1.0})
	if len(injected) == 0 {
		t.Fatal("rate 1.0 injected nothing")
	}
	manifest, err := rules.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := engine.New(nil).Validate(host, manifest, engine.NewCachedSource(rules.Reader()), nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := rep.Counts()
	if counts[engine.StatusFail] < 50 {
		t.Errorf("fully misconfigured host failed only %d checks", counts[engine.StatusFail])
	}
	if counts[engine.StatusError] != 0 {
		t.Errorf("errors on generated host: %d", counts[engine.StatusError])
	}
}

func TestDeterminism(t *testing.T) {
	a, injA := UbuntuHost("h", Profile{Seed: 42, MisconfigRate: 0.3})
	b, injB := UbuntuHost("h", Profile{Seed: 42, MisconfigRate: 0.3})
	if len(injA) != len(injB) {
		t.Fatalf("same seed, different injections: %d vs %d", len(injA), len(injB))
	}
	for _, path := range a.Files() {
		da, _ := a.ReadFile(path)
		db, err := b.ReadFile(path)
		if err != nil || string(da) != string(db) {
			t.Errorf("file %s differs between same-seed runs", path)
		}
	}
	c, _ := UbuntuHost("h", Profile{Seed: 43, MisconfigRate: 0.3})
	same := true
	for _, path := range a.Files() {
		da, _ := a.ReadFile(path)
		dc, err := c.ReadFile(path)
		if err != nil || string(da) != string(dc) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical hosts")
	}
}

func TestInjectionRateMonotonic(t *testing.T) {
	count := func(rate float64) int {
		_, inj := UbuntuHost("h", Profile{Seed: 7, MisconfigRate: rate})
		return len(inj)
	}
	low, mid, high := count(0.1), count(0.5), count(1.0)
	if !(low < mid && mid < high) {
		t.Errorf("injection counts not increasing: %d, %d, %d", low, mid, high)
	}
}

func TestSystemHostScopes(t *testing.T) {
	host, _ := SystemHost("sys", Profile{Seed: 3})
	if _, err := host.ReadFile("/etc/ssh/sshd_config"); err != nil {
		t.Error("sshd_config missing")
	}
	if _, err := host.ReadFile("/etc/nginx/nginx.conf"); err == nil {
		t.Error("system host should not carry nginx config")
	}
}

func TestCleanSystemHostPassesSystemRules(t *testing.T) {
	host, _ := SystemHost("sys", Profile{Seed: 4})
	eng := engine.New(crawler.New(nil, crawler.Options{}))
	for _, target := range []string{"sshd", "sysctl", "audit", "fstab", "modprobe"} {
		rs, err := rules.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, tgt := range rules.Targets() {
			if tgt.Name == target {
				paths = tgt.SearchPaths
			}
		}
		rep, err := eng.ValidateRules(host, rs, paths)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Results {
			if r.Status == engine.StatusFail || r.Status == engine.StatusError {
				t.Errorf("%s: [%s] %s: %s (%s)", target, r.Status, ruleName(r), r.Message, r.Detail)
			}
		}
	}
}

func TestImageGeneration(t *testing.T) {
	img, injected := Image("web", "v1", Profile{Seed: 5})
	if len(injected) != 0 {
		t.Errorf("clean image injected %v", injected)
	}
	ent := img.Entity()
	if ent.Type() != entity.TypeImage {
		t.Errorf("type = %v", ent.Type())
	}
	// Base files and app layers present.
	for _, path := range []string{"/etc/passwd", "/etc/nginx/nginx.conf", "/etc/mysql/my.cnf"} {
		if _, err := ent.ReadFile(path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
	out, err := ent.RunFeature("docker.image_config")
	if err != nil || !strings.Contains(out, "User app") {
		t.Errorf("image_config = %q, %v", out, err)
	}

	dirty, injected := Image("web", "v2", Profile{Seed: 6, MisconfigRate: 1.0})
	if len(injected) == 0 {
		t.Fatal("dirty image injected nothing")
	}
	out, _ = dirty.Entity().RunFeature("docker.image_config")
	for _, want := range []string{"User root", "Healthcheck none", "ExposedPort 22/tcp", "DB_PASSWORD"} {
		if !strings.Contains(out, want) {
			t.Errorf("dirty image_config missing %q:\n%s", want, out)
		}
	}
}

func TestFleet(t *testing.T) {
	reg, injected := Fleet(10, Profile{Seed: 9, MisconfigRate: 0.4})
	if got := len(reg.Images()); got != 10 {
		t.Errorf("fleet size = %d", got)
	}
	if injected == 0 {
		t.Error("fleet with rate 0.4 injected nothing")
	}
	// Per-image seeds differ: images should not all share an ID.
	ids := make(map[string]bool)
	for _, ref := range reg.Images() {
		img, err := reg.Pull(ref)
		if err != nil {
			t.Fatal(err)
		}
		ids[img.ID()] = true
	}
	if len(ids) < 2 {
		t.Error("all fleet images identical")
	}
}

func TestCloudGeneration(t *testing.T) {
	clean, injected := Cloud("clean", Profile{Seed: 11})
	if len(injected) != 0 {
		t.Errorf("clean cloud injected %v", injected)
	}
	id := clean.IdentityConfig()
	if !id.TLSEnabled || id.AdminTokenEnabled || id.PasswordMinLength < 12 {
		t.Errorf("clean identity = %+v", id)
	}
	dirty, injected := Cloud("dirty", Profile{Seed: 12, MisconfigRate: 1.0})
	if len(injected) == 0 {
		t.Fatal("dirty cloud injected nothing")
	}
	id = dirty.IdentityConfig()
	if id.TLSEnabled || !id.AdminTokenEnabled {
		t.Errorf("dirty identity = %+v", id)
	}
	open := false
	for _, sg := range dirty.SecurityGroups() {
		for _, r := range sg.Rules {
			if r.RemoteIPPrefix == "0.0.0.0/0" {
				open = true
			}
		}
	}
	if !open {
		t.Error("dirty cloud has no world-open rule")
	}
}
