package dockersim

import (
	"errors"
	"strings"
	"testing"

	"configvalidator/internal/entity"
)

const demoDockerfile = `
# Web frontend image
FROM ubuntu:16.04
COPY nginx.conf /etc/nginx/nginx.conf
COPY --chown=33:33 --chmod=640 site.conf /etc/nginx/sites-enabled/
RUN apt-get install -y nginx=1.10.3 curl=7.47.0
RUN rm /etc/fstab
ENV MODE=production REGION=us-south
EXPOSE 443/tcp 8080
USER app
HEALTHCHECK CMD curl -f http://localhost/ || exit 1
LABEL maintainer="ops" tier="frontend"
CMD ["/usr/sbin/nginx", "-g", "daemon off;"]
`

func demoContext() BuildContext {
	return BuildContext{
		"nginx.conf": []byte("user www-data;\n"),
		"site.conf":  []byte("server {\n    listen 443 ssl;\n}\n"),
	}
}

func resolver(t *testing.T) BaseResolver {
	t.Helper()
	reg := NewRegistry()
	reg.Push(BaseUbuntu(testTime))
	return reg.Pull
}

func TestParseDockerfile(t *testing.T) {
	img, err := ParseDockerfile("web", "v1", demoDockerfile, demoContext(), resolver(t))
	if err != nil {
		t.Fatal(err)
	}
	ent := img.Entity()

	// COPY with defaults.
	data, err := ent.ReadFile("/etc/nginx/nginx.conf")
	if err != nil || string(data) != "user www-data;\n" {
		t.Errorf("nginx.conf = %q, %v", data, err)
	}
	// COPY --chown/--chmod into a directory destination.
	fi, err := ent.Stat("/etc/nginx/sites-enabled/site.conf")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Perm() != 0o640 || fi.Ownership() != "33:33" {
		t.Errorf("site.conf metadata = %04o %s", fi.Perm(), fi.Ownership())
	}
	// RUN apt-get install.
	db, err := ent.Packages()
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := findPackage(db, "nginx"); !ok || p.Version != "1.10.3" {
		t.Errorf("nginx pkg = %+v ok=%v", p, ok)
	}
	// Base image package retained.
	if _, ok := findPackage(db, "openssh-server"); !ok {
		t.Error("base package lost")
	}
	// RUN rm produced a whiteout over the base file.
	if _, err := ent.ReadFile("/etc/fstab"); !errors.Is(err, entity.ErrNotExist) {
		t.Error("RUN rm did not remove /etc/fstab")
	}
	// Image config.
	out, err := ent.RunFeature("docker.image_config")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"User app", "ExposedPort 443/tcp", "ExposedPort 8080/tcp",
		"Env MODE=production", "Env REGION=us-south", "Healthcheck curl -f",
		"Cmd /usr/sbin/nginx -g daemon off;"} {
		if !strings.Contains(out, want) {
			t.Errorf("image_config missing %q:\n%s", want, out)
		}
	}
	if img.Config.Labels["tier"] != "frontend" {
		t.Errorf("labels = %v", img.Config.Labels)
	}
}

func TestParseDockerfileScratchAndLegacyEnv(t *testing.T) {
	df := "FROM scratch\nENV LEGACY some value with spaces\n"
	img, err := ParseDockerfile("minimal", "v1", df, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Config.Env) != 1 || img.Config.Env[0] != "LEGACY=some value with spaces" {
		t.Errorf("env = %v", img.Config.Env)
	}
}

func TestParseDockerfileContinuations(t *testing.T) {
	df := "FROM scratch\nENV A=1 \\\n    B=2\n"
	img, err := ParseDockerfile("x", "v1", df, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Config.Env) != 2 {
		t.Errorf("env = %v", img.Config.Env)
	}
}

func TestParseDockerfileHealthcheckNone(t *testing.T) {
	img, err := ParseDockerfile("x", "v1", "FROM scratch\nHEALTHCHECK NONE\n", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if img.Config.Healthcheck != "" {
		t.Errorf("healthcheck = %q", img.Config.Healthcheck)
	}
}

func TestParseDockerfileErrors(t *testing.T) {
	cases := []struct {
		name string
		df   string
		ctx  BuildContext
	}{
		{"unknown instruction", "FROM scratch\nFROBNICATE x\n", nil},
		{"missing base", "FROM ghost:latest\n", nil},
		{"copy outside context", "FROM scratch\nCOPY missing.conf /etc/x\n", BuildContext{}},
		{"copy argument count", "FROM scratch\nCOPY onlyone\n", nil},
		{"unsupported run", "FROM scratch\nRUN make install\n", nil},
		{"empty apt install", "FROM scratch\nRUN apt-get install -y\n", nil},
		{"user arity", "FROM scratch\nUSER a b\n", nil},
		{"bad env", "FROM scratch\nENV =broken noequals\n", nil},
		{"bad label", "FROM scratch\nLABEL notkv\n", nil},
		{"bad chown", "FROM scratch\nCOPY --chown=app:app f /f\n", BuildContext{"f": nil}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseDockerfile("x", "v1", tt.df, tt.ctx, resolver(t)); err == nil {
				t.Errorf("Dockerfile accepted:\n%s", tt.df)
			}
		})
	}
}

func TestParseDockerfileScansLikeBuilderImage(t *testing.T) {
	// The Dockerfile route and the Builder route produce equivalent
	// filesystem state for the same operations.
	df := "FROM ubuntu:16.04\nCOPY nginx.conf /etc/nginx/nginx.conf\n"
	imgA, err := ParseDockerfile("a", "v1", df, demoContext(), resolver(t))
	if err != nil {
		t.Fatal(err)
	}
	imgB := NewBuilder("b", "v1").
		From(BaseUbuntu(testTime)).
		AddFile("/etc/nginx/nginx.conf", demoContext()["nginx.conf"], 0o644).
		Build()
	entA, entB := imgA.Entity(), imgB.Entity()
	for _, path := range entB.Files() {
		da, errA := entA.ReadFile(path)
		db, errB := entB.ReadFile(path)
		if (errA == nil) != (errB == nil) || string(da) != string(db) {
			t.Errorf("file %s differs between build routes", path)
		}
	}
}
