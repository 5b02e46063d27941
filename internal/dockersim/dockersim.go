// Package dockersim simulates the Docker substrate that ConfigValidator
// scans in production: images made of ordered copy-on-write layers (with
// whiteouts), running containers (an image plus a read-write layer and
// runtime state), and a registry. The paper's production deployment scans
// "tens of thousands of containers and images daily" through the agentless
// crawler; this simulator provides the same two entity classes with the
// same union-filesystem semantics so the identical validation code path is
// exercised.
//
// Union semantics follow overlayfs/AUFS: layers apply bottom-up, the upper
// layer wins for regular files, a whiteout entry removes the lower path,
// and an opaque directory entry hides all lower content of that directory.
package dockersim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strings"
	"time"

	"configvalidator/internal/entity"
	"configvalidator/internal/pkgdb"
)

// FileEntry is one filesystem operation recorded in a layer.
type FileEntry struct {
	// Path is the absolute path the entry affects.
	Path string
	// Data is the file content (nil for directories and whiteouts).
	Data []byte
	// Mode carries permissions; directories must include fs.ModeDir.
	Mode fs.FileMode
	// UID and GID are the numeric owner.
	UID int
	GID int
	// ModTime is the recorded modification time.
	ModTime time.Time
	// Whiteout marks the path deleted relative to lower layers.
	Whiteout bool
	// Opaque (directories only) hides all lower-layer content below Path.
	Opaque bool
}

// Layer is an ordered list of file operations plus provenance.
type Layer struct {
	// CreatedBy records the instruction that produced the layer, like a
	// Dockerfile history entry.
	CreatedBy string
	// Entries apply in order within the layer.
	Entries []FileEntry
	// Packages optionally records package-database changes made by the
	// layer (install/remove of dpkg entries).
	Packages []pkgdb.Package
}

// Digest returns a deterministic content hash of the layer.
func (l *Layer) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "created-by:%s\n", l.CreatedBy)
	for _, e := range l.Entries {
		fmt.Fprintf(h, "%s|%o|%d:%d|wh=%t|op=%t|", e.Path, e.Mode, e.UID, e.GID, e.Whiteout, e.Opaque)
		h.Write(e.Data)
		h.Write([]byte{'\n'})
	}
	for _, p := range l.Packages {
		fmt.Fprintf(h, "pkg:%s=%s\n", p.Name, p.Version)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// ImageConfig carries the non-filesystem image metadata that CIS Docker
// rules assert on (user, exposed ports, environment, healthcheck).
type ImageConfig struct {
	// User is the default user the container runs as ("" means root).
	User string
	// Env holds KEY=value environment entries.
	Env []string
	// ExposedPorts lists ports like "443/tcp".
	ExposedPorts []string
	// Cmd is the default command.
	Cmd []string
	// Labels are arbitrary image labels.
	Labels map[string]string
	// Healthcheck is the HEALTHCHECK command; empty means none declared.
	Healthcheck string
}

// Image is an immutable stack of layers plus config.
type Image struct {
	// Repository and Tag name the image, e.g. "web-frontend" and "v1.2".
	Repository string
	Tag        string
	// Layers apply bottom-up.
	Layers []Layer
	// Config is the image runtime configuration.
	Config ImageConfig
}

// Ref returns "repository:tag".
func (img *Image) Ref() string { return img.Repository + ":" + img.Tag }

// ID returns a deterministic image identifier derived from layer digests
// and config.
func (img *Image) ID() string {
	h := sha256.New()
	for i := range img.Layers {
		fmt.Fprintln(h, img.Layers[i].Digest())
	}
	fmt.Fprintf(h, "user:%s|hc:%s|", img.Config.User, img.Config.Healthcheck)
	fmt.Fprintf(h, "env:%s|ports:%s|cmd:%s|",
		strings.Join(img.Config.Env, ","),
		strings.Join(img.Config.ExposedPorts, ","),
		strings.Join(img.Config.Cmd, " "))
	labels := make([]string, 0, len(img.Config.Labels))
	for k, v := range img.Config.Labels {
		labels = append(labels, k+"="+v)
	}
	sort.Strings(labels)
	fmt.Fprintf(h, "labels:%s", strings.Join(labels, ","))
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// Entity materializes the image's union filesystem as a read-only entity,
// the form the crawler scans. Image metadata is exposed as the
// "docker.image_config" runtime feature in "key value" lines so script
// rules can assert on it.
func (img *Image) Entity() *entity.Mem {
	m := entity.NewMem(img.Ref(), entity.TypeImage)
	applyLayers(m, img.Layers)
	m.SetFeature("docker.image_config", img.configFeature())
	return m
}

func (img *Image) configFeature() string {
	var b strings.Builder
	user := img.Config.User
	if user == "" {
		user = "root"
	}
	fmt.Fprintf(&b, "User %s\n", user)
	fmt.Fprintf(&b, "Healthcheck %s\n", orNone(img.Config.Healthcheck))
	for _, p := range img.Config.ExposedPorts {
		fmt.Fprintf(&b, "ExposedPort %s\n", p)
	}
	for _, e := range img.Config.Env {
		fmt.Fprintf(&b, "Env %s\n", e)
	}
	if len(img.Config.Cmd) > 0 {
		fmt.Fprintf(&b, "Cmd %s\n", strings.Join(img.Config.Cmd, " "))
	}
	return b.String()
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// applyLayers folds layers bottom-up into the entity, implementing
// last-writer-wins, whiteouts, and opaque directories. Package-database
// deltas accumulate across layers (a later layer replaces same-named
// packages).
func applyLayers(m *entity.Mem, layers []Layer) {
	pkgs := make(map[string]pkgdb.Package)
	var pkgOrder []string
	for li := range layers {
		layer := &layers[li]
		for _, e := range layer.Entries {
			switch {
			case e.Whiteout:
				m.RemoveFile(e.Path)
			case e.Opaque:
				removeUnder(m, e.Path)
				m.AddDir(e.Path, entity.WithMode(e.Mode), entity.WithOwner(e.UID, e.GID))
			case e.Mode.IsDir():
				m.AddDir(e.Path, entity.WithMode(e.Mode), entity.WithOwner(e.UID, e.GID))
			default:
				mode := e.Mode
				if mode == 0 {
					mode = 0o644
				}
				m.AddFile(e.Path, e.Data,
					entity.WithMode(mode),
					entity.WithOwner(e.UID, e.GID),
					entity.WithModTime(e.ModTime))
			}
		}
		for _, p := range layer.Packages {
			if _, ok := pkgs[p.Name]; !ok {
				pkgOrder = append(pkgOrder, p.Name)
			}
			pkgs[p.Name] = p
		}
	}
	out := make([]pkgdb.Package, 0, len(pkgOrder))
	for _, name := range pkgOrder {
		out = append(out, pkgs[name])
	}
	m.SetPackages(out)
}

func removeUnder(m *entity.Mem, dir string) {
	dir = entity.Clean(dir)
	for _, p := range m.Files() {
		if strings.HasPrefix(p, dir+"/") {
			m.RemoveFile(p)
		}
	}
}

// ExportTar writes the image's materialized union filesystem (with its
// package database embedded as a dpkg status file) as a tar stream — the
// `docker export` analogue. The archive can be re-scanned through
// entity.NewFromTar without access to this simulator.
func (img *Image) ExportTar(w io.Writer) error {
	return img.Entity().WriteTar(w)
}

// ContainerState enumerates simulated container lifecycle states.
type ContainerState int

// Container states.
const (
	StateCreated ContainerState = iota + 1
	StateRunning
	StateExited
)

// String returns the state name.
func (s ContainerState) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateExited:
		return "exited"
	default:
		return fmt.Sprintf("ContainerState(%d)", int(s))
	}
}

// Container is a running (or stopped) instance of an image: the image
// layers plus a read-write layer and runtime state.
type Container struct {
	// ID is the container identifier.
	ID string
	// Image is the source image.
	Image *Image
	// State is the lifecycle state.
	State ContainerState
	// RW is the read-write top layer capturing changes made at runtime.
	RW Layer
	// Privileged mirrors docker run --privileged.
	Privileged bool
	// HostNetwork mirrors docker run --net=host.
	HostNetwork bool
	// Mounts lists host paths mounted into the container.
	Mounts []string
	// features holds extra runtime plugin outputs.
	features map[string]string
}

// NewContainer creates a container for the image.
func NewContainer(id string, img *Image) *Container {
	return &Container{ID: id, Image: img, State: StateCreated, features: make(map[string]string)}
}

// WriteFile records a runtime modification in the read-write layer.
func (c *Container) WriteFile(path string, data []byte, mode fs.FileMode) {
	c.RW.Entries = append(c.RW.Entries, FileEntry{Path: path, Data: data, Mode: mode})
}

// SetFeature attaches extra runtime state to the container.
func (c *Container) SetFeature(name, output string) {
	c.features[name] = output
}

// Entity materializes the container: image layers + RW layer, plus runtime
// features describing the container configuration (the docker.inspect
// analogue CIS Docker runtime rules consume).
func (c *Container) Entity() *entity.Mem {
	m := entity.NewMem(c.ID, entity.TypeContainer)
	layers := make([]Layer, 0, len(c.Image.Layers)+1)
	layers = append(layers, c.Image.Layers...)
	layers = append(layers, c.RW)
	applyLayers(m, layers)
	m.SetFeature("docker.image_config", c.Image.configFeature())
	m.SetFeature("docker.inspect", c.inspectFeature())
	for name, out := range c.features {
		m.SetFeature(name, out)
	}
	return m
}

func (c *Container) inspectFeature() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Id %s\n", c.ID)
	fmt.Fprintf(&b, "Image %s\n", c.Image.Ref())
	fmt.Fprintf(&b, "State %s\n", c.State)
	fmt.Fprintf(&b, "Privileged %t\n", c.Privileged)
	fmt.Fprintf(&b, "HostNetwork %t\n", c.HostNetwork)
	for _, mnt := range c.Mounts {
		fmt.Fprintf(&b, "Mount %s\n", mnt)
	}
	return b.String()
}

// Registry stores images and containers, standing in for a Docker daemon +
// registry pair.
type Registry struct {
	images     map[string]*Image
	containers map[string]*Container
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		images:     make(map[string]*Image),
		containers: make(map[string]*Container),
	}
}

// Push stores an image under its ref, replacing any existing one.
func (r *Registry) Push(img *Image) {
	r.images[img.Ref()] = img
}

// Pull retrieves an image by "repository:tag" ref.
func (r *Registry) Pull(ref string) (*Image, error) {
	img, ok := r.images[ref]
	if !ok {
		return nil, fmt.Errorf("dockersim: image %q not found", ref)
	}
	return img, nil
}

// Images lists all image refs, sorted.
func (r *Registry) Images() []string {
	out := make([]string, 0, len(r.images))
	for ref := range r.images {
		out = append(out, ref)
	}
	sort.Strings(out)
	return out
}

// Run creates and starts a container from the referenced image.
func (r *Registry) Run(id, ref string) (*Container, error) {
	img, err := r.Pull(ref)
	if err != nil {
		return nil, err
	}
	if _, exists := r.containers[id]; exists {
		return nil, fmt.Errorf("dockersim: container %q already exists", id)
	}
	c := NewContainer(id, img)
	c.State = StateRunning
	r.containers[id] = c
	return c, nil
}
