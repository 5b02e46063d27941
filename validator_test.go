package configvalidator

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"configvalidator/internal/cloudsim"
	"configvalidator/internal/cvl"
	"configvalidator/internal/dockersim"
	"configvalidator/internal/engine"
	"configvalidator/internal/entity"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/frames"
)

// newRunningContainer starts a container for the image in a fresh registry.
func newRunningContainer(t *testing.T, img *dockersim.Image) *dockersim.Container {
	t.Helper()
	reg := dockersim.NewRegistry()
	reg.Push(img)
	c, err := reg.Run("c-1", img.Ref())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPipelineAcrossEntityClasses is the Figure-1 integration test (E4):
// the same validator scans a host, an image, a container, and a cloud.
func TestPipelineAcrossEntityClasses(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("host", func(t *testing.T) {
		host, _ := fixtures.UbuntuHost("host-1", fixtures.Profile{Seed: 1})
		rep, err := v.Validate(host)
		if err != nil {
			t.Fatal(err)
		}
		assertNoFailures(t, rep)
		if len(rep.Results) < 100 {
			t.Errorf("host results = %d, expected the bulk of the 135-rule library", len(rep.Results))
		}
	})

	t.Run("image", func(t *testing.T) {
		img, _ := fixtures.Image("web", "v1", fixtures.Profile{Seed: 2})
		rep, err := v.Validate(img.Entity())
		if err != nil {
			t.Fatal(err)
		}
		assertNoFailures(t, rep)
		if rep.EntityType != "image" {
			t.Errorf("entity type = %s", rep.EntityType)
		}
	})

	t.Run("container", func(t *testing.T) {
		img, _ := fixtures.Image("web", "v1", fixtures.Profile{Seed: 3})
		rep, err := v.Validate(newRunningContainer(t, img).Entity())
		if err != nil {
			t.Fatal(err)
		}
		assertNoFailures(t, rep)
		if rep.EntityType != "container" {
			t.Errorf("entity type = %s", rep.EntityType)
		}
	})

	t.Run("cloud", func(t *testing.T) {
		cloud, _ := fixtures.Cloud("prod", fixtures.Profile{Seed: 4})
		srv := httptest.NewServer(cloud.Handler())
		defer srv.Close()
		ent, err := cloudsim.NewClient(srv.URL).Crawl("prod")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := v.ValidateTarget(ent, "openstack")
		if err != nil {
			t.Fatal(err)
		}
		assertNoFailures(t, rep)
		if len(rep.Results) != 8 {
			t.Errorf("openstack results = %d, want 8", len(rep.Results))
		}
	})
}

func TestMisconfiguredEntitiesFail(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	host, injected := fixtures.UbuntuHost("dirty", fixtures.Profile{Seed: 9, MisconfigRate: 0.5})
	rep, err := v.Validate(host)
	if err != nil {
		t.Fatal(err)
	}
	fails := rep.Counts()[StatusFail]
	if fails == 0 {
		t.Fatalf("no failures despite %d injections", len(injected))
	}
	// Every injected misconfiguration concerns a real target; the failure
	// count should be in the same ballpark (some injections affect rules
	// with overlapping coverage).
	if fails < len(injected)/2 {
		t.Errorf("failures = %d, injections = %d", fails, len(injected))
	}
}

// TestFrameEquivalence is the touchless-validation property (E8b): a scan
// of a frame equals a scan of the live entity it captured.
func TestFrameEquivalence(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	host, _ := fixtures.UbuntuHost("live", fixtures.Profile{Seed: 21, MisconfigRate: 0.4})
	liveRep, err := v.Validate(host)
	if err != nil {
		t.Fatal(err)
	}

	frame, err := frames.Capture(host, nil, time.Date(2017, 12, 12, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := frame.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := frames.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	frameRep, err := v.Validate(back.Entity())
	if err != nil {
		t.Fatal(err)
	}

	if len(liveRep.Results) != len(frameRep.Results) {
		t.Fatalf("result counts differ: live %d, frame %d", len(liveRep.Results), len(frameRep.Results))
	}
	for i := range liveRep.Results {
		l, f := liveRep.Results[i], frameRep.Results[i]
		if l.Status != f.Status || ruleKey(l) != ruleKey(f) {
			t.Errorf("result %d differs: live [%v %s] vs frame [%v %s]",
				i, l.Status, ruleKey(l), f.Status, ruleKey(f))
		}
	}
}

func TestValidateTargetUnknown(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	host, _ := fixtures.UbuntuHost("h", fixtures.Profile{Seed: 1})
	if _, err := v.ValidateTarget(host, "kubernetes"); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestCustomManifest(t *testing.T) {
	files := map[string]string{
		"m.yaml": "sshd:\n  config_search_paths: [/etc/ssh]\n  cvl_file: r.yaml\n",
		"r.yaml": "config_name: PermitRootLogin\nconfig_path: [\"\"]\npreferred_value: [\"no\"]\n",
	}
	m, err := cvl.ParseManifest("m.yaml", []byte(files["m.yaml"]))
	if err != nil {
		t.Fatal(err)
	}
	read := func(p string) ([]byte, error) { return []byte(files[p]), nil }
	v, err := New(WithManifest(m, read))
	if err != nil {
		t.Fatal(err)
	}
	host, _ := fixtures.SystemHost("h", fixtures.Profile{Seed: 1})
	rep, err := v.Validate(host)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Status != StatusPass {
		t.Errorf("custom manifest results = %+v", rep.Results)
	}
}

// TestDescendantConfigPathSeesRootKeys: config_path "**" spans zero or
// more levels, so a rule scoped to it judges a key directly under the file
// root exactly as config_path "" does — it does not report the key absent.
func TestDescendantConfigPathSeesRootKeys(t *testing.T) {
	host := entity.NewMem("h", entity.TypeHost)
	host.AddFile("/etc/ssh/sshd_config", []byte("Port 22\nPermitRootLogin yes\n"))
	for _, tt := range []struct {
		rule, detail string
	}{
		{`config_path: ["**"]` + "\nnon_preferred_value: [\"yes\"]\nabsent_pass: true\n", `value "yes" matches a non-preferred value`},
		{`config_path: [""]` + "\nnon_preferred_value: [\"yes\"]\nabsent_pass: true\n", `value "yes" matches a non-preferred value`},
		{`config_path: ["**"]` + "\npreferred_value: [\"no\"]\n", `value "yes" does not match the preferred values`},
	} {
		files := map[string]string{"r.yaml": "config_name: PermitRootLogin\n" + tt.rule}
		m, err := cvl.ParseManifest("m.yaml", []byte("sshd:\n  config_search_paths: [/etc/ssh]\n  cvl_file: r.yaml\n"))
		if err != nil {
			t.Fatal(err)
		}
		v, err := New(WithManifest(m, func(p string) ([]byte, error) { return []byte(files[p]), nil }))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := v.Validate(host)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != 1 {
			t.Fatalf("%q: %d results", tt.rule, len(rep.Results))
		}
		if r := rep.Results[0]; r.Status != StatusFail || r.Detail != tt.detail {
			t.Errorf("%q on PermitRootLogin yes: %+v, want FAIL with %q", tt.rule, r, tt.detail)
		}
	}
}

func TestManifestWithoutReaderRejected(t *testing.T) {
	if _, err := New(WithManifest(&cvl.Manifest{}, nil)); err == nil {
		t.Error("manifest without reader accepted")
	}
}

func TestOutputHelpers(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	host, _ := fixtures.UbuntuHost("h", fixtures.Profile{Seed: 31, MisconfigRate: 0.5})
	rep, err := v.Validate(host)
	if err != nil {
		t.Fatal(err)
	}
	var text, js, summary bytes.Buffer
	if err := WriteText(&text, rep, OutputOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "Entity: h (host)") {
		t.Errorf("text output:\n%s", text.String())
	}
	if err := WriteJSON(&js, rep, OutputOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"entity": "h"`) {
		t.Error("json output missing entity")
	}
	if err := WriteComplianceSummary(&summary, []*Report{rep}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary.String(), "#cis") {
		t.Error("summary missing #cis")
	}
}

func TestBuiltinRulesAndTargets(t *testing.T) {
	if got := len(Targets()); got != 11 {
		t.Errorf("targets = %d", got)
	}
	rs, err := BuiltinRules("sshd")
	if err != nil || len(rs) != 18 {
		t.Errorf("sshd rules = %d, %v", len(rs), err)
	}
	if _, err := BuiltinRules("nope"); err == nil {
		t.Error("unknown target loaded")
	}
}

func assertNoFailures(t *testing.T, rep *Report) {
	t.Helper()
	for _, r := range rep.Results {
		if r.Status == StatusFail || r.Status == StatusError {
			t.Errorf("[%v] %s/%s: %s (%s)", r.Status, r.ManifestEntity, ruleKey(r), r.Message, r.Detail)
		}
	}
}

func ruleKey(r *engine.Result) string {
	if r.Rule == nil {
		return "(parse)"
	}
	return r.Rule.Name
}
