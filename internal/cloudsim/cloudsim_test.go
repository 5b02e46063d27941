package cloudsim

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"configvalidator/internal/configtree"
	"configvalidator/internal/entity"
	"configvalidator/internal/lens"
)

func demoCloud() *Cloud {
	c := New("prod-cloud")
	c.AddSecurityGroup(SecurityGroup{
		ID:      "sg-1",
		Name:    "web",
		Project: "acme",
		Rules: []SecurityGroupRule{
			{Direction: "ingress", Protocol: "tcp", PortMin: 443, PortMax: 443, RemoteIPPrefix: "0.0.0.0/0"},
		},
	})
	c.AddSecurityGroup(SecurityGroup{
		ID:      "sg-2",
		Name:    "admin",
		Project: "acme",
		Rules: []SecurityGroupRule{
			{Direction: "ingress", Protocol: "tcp", PortMin: 22, PortMax: 22, RemoteIPPrefix: "0.0.0.0/0"},
		},
	})
	c.AddInstance(Instance{ID: "i-1", Name: "web-1", Project: "acme", Status: "ACTIVE", SecurityGroups: []string{"sg-1"}})
	c.AddUser(User{ID: "u-1", Name: "admin", Enabled: true, MFAEnabled: false})
	return c
}

func TestCloudStateAccessors(t *testing.T) {
	c := demoCloud()
	if c.Name() != "prod-cloud" {
		t.Errorf("name = %q", c.Name())
	}
	sgs := c.SecurityGroups()
	if len(sgs) != 2 || sgs[0].ID != "sg-1" || sgs[1].ID != "sg-2" {
		t.Errorf("security groups = %+v", sgs)
	}
	if got := c.Instances(); len(got) != 1 || got[0].Name != "web-1" {
		t.Errorf("instances = %+v", got)
	}
	if got := c.Users(); len(got) != 1 || got[0].MFAEnabled {
		t.Errorf("users = %+v", got)
	}
	// Defaults are secure.
	id := c.IdentityConfig()
	if !id.TLSEnabled || id.AdminTokenEnabled {
		t.Errorf("identity defaults = %+v", id)
	}
	// Replace by ID.
	c.AddUser(User{ID: "u-1", Name: "admin", Enabled: false})
	if got := c.Users(); len(got) != 1 || got[0].Enabled {
		t.Errorf("user replacement failed: %+v", got)
	}
}

func TestMutationIsolation(t *testing.T) {
	c := New("x")
	rules := []SecurityGroupRule{{Direction: "ingress"}}
	c.AddSecurityGroup(SecurityGroup{ID: "sg", Rules: rules})
	rules[0].Direction = "egress"
	if got := c.SecurityGroups()[0].Rules[0].Direction; got != "ingress" {
		t.Errorf("caller mutation leaked: %q", got)
	}
}

func TestHTTPAPI(t *testing.T) {
	srv := httptest.NewServer(demoCloud().Handler())
	defer srv.Close()

	var payload struct {
		SecurityGroups []SecurityGroup `json:"security_groups"`
	}
	resp, err := http.Get(srv.URL + "/v2/security-groups")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.SecurityGroups) != 2 {
		t.Errorf("groups over API = %d", len(payload.SecurityGroups))
	}
	if payload.SecurityGroups[1].Rules[0].PortMin != 22 {
		t.Errorf("rule = %+v", payload.SecurityGroups[1].Rules[0])
	}

	for _, path := range []string{"/v2/instances", "/v2/users", "/v2/identity-config"} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		_ = r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s status = %s", path, r.Status)
		}
	}
	r, err := http.Get(srv.URL + "/v2/nope")
	if err != nil {
		t.Fatal(err)
	}
	_ = r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown endpoint status = %s", r.Status)
	}
}

func TestClientCrawl(t *testing.T) {
	srv := httptest.NewServer(demoCloud().Handler())
	defer srv.Close()

	m, err := NewClient(srv.URL).Crawl("prod-cloud")
	if err != nil {
		t.Fatal(err)
	}
	if m.Type() != entity.TypeCloud {
		t.Errorf("type = %v", m.Type())
	}
	// Every virtual doc exists and is valid JSON normalizable by the lens.
	reg := lens.Default()
	for _, vpath := range []string{
		"/openstack/security_groups.json",
		"/openstack/instances.json",
		"/openstack/users.json",
		"/openstack/identity.json",
	} {
		data, err := m.ReadFile(vpath)
		if err != nil {
			t.Fatalf("%s: %v", vpath, err)
		}
		res, err := reg.Parse(vpath, data)
		if err != nil {
			t.Fatalf("normalize %s: %v", vpath, err)
		}
		if res.Kind != lens.KindTree {
			t.Errorf("%s kind = %v", vpath, res.Kind)
		}
	}

	// The normalized tree supports the queries OSSG rules need: find
	// world-open SSH ingress.
	data, _ := m.ReadFile("/openstack/security_groups.json")
	res, err := reg.Parse("/openstack/security_groups.json", data)
	if err != nil {
		t.Fatal(err)
	}
	open := 0
	for _, rule := range res.Tree.AppendFind(nil, configtree.Compile("security_groups/rules")) {
		prefix, _ := rule.Child("remote_ip_prefix")
		portMin, _ := rule.Child("port_range_min")
		if prefix != nil && prefix.Value == "0.0.0.0/0" && portMin != nil && portMin.Value == "22" {
			open++
		}
	}
	if open != 1 {
		t.Errorf("world-open ssh rules found = %d, want 1", open)
	}
}

func TestClientCrawlErrors(t *testing.T) {
	// Server that 500s everything.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	if _, err := NewClient(srv.URL).Crawl("x"); err == nil {
		t.Error("crawl of failing API succeeded")
	}
	// Unreachable server.
	if _, err := NewClient("http://127.0.0.1:1").Crawl("x"); err == nil {
		t.Error("crawl of unreachable API succeeded")
	}
}

func TestIdentityConfigOverAPI(t *testing.T) {
	c := demoCloud()
	c.SetIdentityConfig(IdentityConfig{TLSEnabled: false, AdminTokenEnabled: true, TokenExpirationSeconds: 86400, PasswordMinLength: 4})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	m, err := NewClient(srv.URL).Crawl("c")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := m.ReadFile("/openstack/identity.json")
	if !strings.Contains(string(data), `"tls_enabled":false`) {
		t.Errorf("identity json = %s", data)
	}
	res, err := lens.Default().Parse("/openstack/identity.json", data)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Tree.AppendFind(nil, configtree.Compile("identity/admin_token_enabled")); len(n) != 1 || n[0].Value != "true" {
		t.Errorf("admin_token_enabled = %v", n)
	}
}
