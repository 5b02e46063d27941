// Package crawler implements the Config Extractor stage of ConfigValidator
// (§3.1): it walks an entity's configuration search paths, selects a lens
// for each discovered file, and produces normalized configuration data plus
// the file metadata that path rules assert on. It is the Go analogue of the
// agentless system crawler the paper builds on [1].
package crawler

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"strings"

	"configvalidator/internal/entity"
	"configvalidator/internal/faults"
	"configvalidator/internal/lens"
)

// FileConfig is one discovered configuration file, normalized.
type FileConfig struct {
	// Path is the file's path inside the entity.
	Path string
	// LensName is the lens that parsed the file.
	LensName string
	// Result is the normalized tree or table; nil when Err is set.
	Result *lens.Result
	// Info is the file's metadata.
	Info entity.FileInfo
	// Err records a parse failure; the rule engine surfaces it as an
	// error-grade validation result rather than aborting the scan.
	Err error
}

// Options tune a crawl.
type Options struct {
	// MaxFileSize skips files larger than this many bytes (0 = 16 MiB).
	MaxFileSize int64
	// IncludeUnrecognized records files with no matching lens (with a nil
	// Result); by default they are skipped silently.
	IncludeUnrecognized bool
	// Faults arms fault injection on lens parsing (faults.OpParse). Nil —
	// the production default — is inert and costs one nil check.
	Faults *faults.Injector
	// Cache is an optional content-addressed parse cache shared across
	// every entity crawled through this crawler: identical file content
	// (by lens, path, and SHA-256) parses once fleet-wide. Nil disables
	// caching.
	Cache *ParseCache
}

// Crawler extracts configuration from entities using a lens registry.
type Crawler struct {
	registry *lens.Registry
	opts     Options
}

// New creates a crawler. A nil registry uses lens.Default().
func New(registry *lens.Registry, opts Options) *Crawler {
	if registry == nil {
		registry = lens.Default()
	}
	if opts.MaxFileSize == 0 {
		opts.MaxFileSize = 16 << 20
	}
	return &Crawler{registry: registry, opts: opts}
}

// Registry exposes the lens registry the crawler uses.
func (c *Crawler) Registry() *lens.Registry { return c.registry }

// CrawlPaths walks each search path on the entity and normalizes every
// recognized configuration file: Discover followed by Load on each file.
// Missing search paths are skipped (an entity without /etc/mysql simply
// has no MySQL configuration). Files are returned sorted by path,
// deduplicated across overlapping search paths.
//
// Failure granularity: a per-file problem (unreadable, oversized, or
// unparseable content, including a panicking lens) degrades that one
// FileConfig via its Err field and the crawl continues; a Walk failure is
// an entity-access failure (unreachable layer, flaky backend) and aborts
// with an error so the fleet's transient-retry policy can decide whether
// to re-scan the whole entity.
func (c *Crawler) CrawlPaths(e entity.Entity, searchPaths []string) ([]*FileConfig, error) {
	configs, err := c.Discover(e, searchPaths)
	if err != nil {
		return nil, err
	}
	for _, fc := range configs {
		c.Load(e, fc)
	}
	return configs, nil
}

// Discover is the walk half of CrawlPaths: it lists the recognized files
// under the search paths as FileConfigs with Path, LensName and Info set
// but nothing read, sorted by path and deduplicated. It touches only
// entity metadata, and a Walk failure aborts it.
func (c *Crawler) Discover(e entity.Entity, searchPaths []string) ([]*FileConfig, error) {
	var out []*FileConfig
	for _, root := range searchPaths {
		err := e.Walk(root, func(fi entity.FileInfo) error {
			if fi.IsDir() {
				return nil
			}
			if l, ok := c.registry.ForFile(fi.Path); ok {
				out = append(out, &FileConfig{Path: fi.Path, LensName: l.Name(), Info: fi})
			} else if c.opts.IncludeUnrecognized {
				out = append(out, &FileConfig{Path: fi.Path, Info: fi})
			}
			return nil
		})
		if err != nil {
			if errors.Is(err, entity.ErrNotExist) {
				continue
			}
			return nil, fmt.Errorf("crawl %s: %w", root, err)
		}
	}
	// Overlapping roots reach a file more than once: a stable sort keeps
	// the first root's entry first, and compaction drops the rest.
	slices.SortStableFunc(out, func(a, b *FileConfig) int { return strings.Compare(a.Path, b.Path) })
	return slices.CompactFunc(out, func(a, b *FileConfig) bool { return a.Path == b.Path }), nil
}

// Load is the read-and-parse half of CrawlPaths for one discovered file.
// It never fails: an oversized, unreadable or unparseable file degrades to
// fc.Err, and so does a panicking ReadFile or lens (a corrupt input hitting
// a parser bug) instead of aborting the entity scan. Distinct files may
// load concurrently.
func (c *Crawler) Load(e entity.Entity, fc *FileConfig) {
	l, ok := c.registry.ForFile(fc.Path)
	if !ok {
		return // kept by IncludeUnrecognized; nothing to parse
	}
	if fc.Info.Size > c.opts.MaxFileSize {
		fc.Err = fmt.Errorf("crawler: %s: file size %d exceeds limit %d", fc.Path, fc.Info.Size, c.opts.MaxFileSize)
		return
	}
	defer func() {
		if r := recover(); r != nil {
			fc.Result = nil
			fc.Err = fmt.Errorf("crawler: %s: read/parse panicked: %v", fc.Path, r)
		}
	}()
	content, err := e.ReadFile(fc.Path)
	if err != nil {
		fc.Err = fmt.Errorf("crawler: read %s: %w", fc.Path, err)
		return
	}
	// Fault injection is consulted before the cache so chaos drills hit
	// the same injection points whether or not a scan runs cache-warm.
	if err := c.opts.Faults.Check(faults.OpParse, fc.Path); err != nil {
		fc.Err = fmt.Errorf("crawler: parse %s: %w", fc.Path, err)
		return
	}
	if c.opts.Cache != nil {
		sum := sha256.Sum256(content)
		if res, ok := c.opts.Cache.get(l.Name(), fc.Path, sum); ok {
			fc.Result = res
			return
		}
		res, err := l.Parse(fc.Path, content)
		if err != nil {
			fc.Err = err
			return
		}
		c.opts.Cache.put(l.Name(), fc.Path, sum, res)
		fc.Result = res
		return
	}
	res, err := l.Parse(fc.Path, content)
	if err != nil {
		fc.Err = err
		return
	}
	fc.Result = res
}
