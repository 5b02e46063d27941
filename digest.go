package configvalidator

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"configvalidator/internal/cvl"
	"configvalidator/internal/entity"
)

// ConfigDigest computes the SHA-256 identity of everything that could
// change a validation verdict for this entity: the rule files of the
// selected manifest entries (so a rule-library edit invalidates journaled
// results), the metadata and content of every file under the entries'
// config search paths, the existence, mode and owner of every path-rule
// target no walk of those paths visits, the installed-package database,
// and the names of the entity's runtime features. Two entities with equal
// digests validate to byte-identical reports, which is what lets a
// resumed or re-run fleet scan replay a journaled result instead of
// re-scanning (see FleetOptions.Journal).
//
// The rule files are the ones resolving each entry's cvl_file reads: the
// file and its whole parent_cvl_file chain, so an edit anywhere up the
// chain changes the digest. A manifest entry cannot name a parent of its
// own: manifest parsing rejects a parent_cvl_file key.
//
// A scan stats a path rule's path_name wherever it lies, so a target no
// walk visits (/etc/shadow for an entry that searches /etc/ssh, or a
// search path's own directory) is folded in on its own.
//
// Known digest blind spot, accepted for cheapness: runtime feature
// *outputs* are not executed (only the feature list participates). They
// change rarely relative to config files; when they do, a Compact()ed
// journal or a new journal path forces a full re-scan.
//
// target selects one manifest entity as in ValidateTarget; empty digests
// the full manifest. Panics from entity implementations are recovered into
// errors. Any error means "no digest": the caller must scan.
func (v *Validator) ConfigDigest(e Entity, target string) (dig string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("configvalidator: digest %s: panic: %v", e.Name(), r)
		}
	}()

	var entries []*cvl.ManifestEntry
	if target == "" {
		entries = v.manifest.EnabledEntries()
	} else {
		entry, ok := v.manifest.Entry(target)
		if !ok {
			return "", fmt.Errorf("configvalidator: %w: %q", ErrUnknownTarget, target)
		}
		entries = []*cvl.ManifestEntry{entry}
	}

	h := sha256.New()
	io.WriteString(h, "cvdigest/1\x00")

	// Rule-library fingerprint: the verdict depends on the rules as much as
	// on the config, so a rule edit must change the digest.
	for _, entry := range entries {
		sums, ferr := v.source.Fingerprint(entry.CVLFile)
		if ferr != nil {
			return "", fmt.Errorf("configvalidator: digest %s: rule file %s: %w", e.Name(), entry.CVLFile, ferr)
		}
		io.WriteString(h, "entry\x00"+entry.Name+"\x00")
		for _, f := range sums {
			io.WriteString(h, f.Path+"\x00"+f.SHA256+"\x00")
		}
	}

	// Config files: metadata and content of everything under the union of
	// the entries' search paths. Roots absent from the entity contribute
	// nothing (their absence is itself part of the digest via omission of
	// their files); any other walk or read failure aborts the digest — a
	// half-observed entity must not replay.
	roots := searchPathUnion(entries)
	for _, root := range roots {
		io.WriteString(h, "root\x00"+root+"\x00")
		werr := e.Walk(root, func(fi entity.FileInfo) error {
			fmt.Fprintf(h, "f\x00%s\x00%d\x00%o\x00%d\x00%d\x00%d\x00",
				fi.Path, fi.Size, uint32(fi.Mode), fi.UID, fi.GID, fi.ModTime.UnixNano())
			if fi.IsDir() {
				return nil
			}
			data, rerr := e.ReadFile(fi.Path)
			if rerr != nil {
				return fmt.Errorf("read %s: %w", fi.Path, rerr)
			}
			sum := sha256.Sum256(data)
			h.Write(sum[:])
			return nil
		})
		if werr != nil {
			if errors.Is(werr, entity.ErrNotExist) {
				continue
			}
			return "", fmt.Errorf("configvalidator: digest %s: %w", e.Name(), werr)
		}
	}

	// Path-rule targets no walk visits: what a path rule checks of them.
	targets, err := v.pathTargets(target, entries, roots)
	if err != nil {
		return "", fmt.Errorf("configvalidator: digest %s: %w", e.Name(), err)
	}
	for _, p := range targets {
		fi, serr := e.Stat(p)
		switch {
		case serr == nil:
			fmt.Fprintf(h, "path\x00%s\x00%o\x00%d\x00%d\x00", p, uint32(fi.Mode), fi.UID, fi.GID)
		case errors.Is(serr, entity.ErrNotExist):
			io.WriteString(h, "path-absent\x00"+p+"\x00")
		default:
			return "", fmt.Errorf("configvalidator: digest %s: stat %s: %w", e.Name(), p, serr)
		}
	}

	// System state: the installed-package database (sorted by DB.All) and
	// the sorted runtime-feature names.
	if db, perr := e.Packages(); perr == nil && db != nil {
		for _, p := range db.All() {
			io.WriteString(h, "pkg\x00"+p.Name+"\x00"+p.Version+"\x00"+p.Architecture+"\x00"+p.Status+"\x00")
		}
	} else {
		io.WriteString(h, "pkg-unavailable\x00")
	}
	for _, f := range e.Features() {
		io.WriteString(h, "feat\x00"+f+"\x00")
	}

	return hex.EncodeToString(h.Sum(nil)), nil
}

// pathTargets returns the path-rule targets of entries that no walk of
// roots visits, worked out once per target selection.
func (v *Validator) pathTargets(target string, entries []*cvl.ManifestEntry, roots []string) ([]string, error) {
	v.targetsMu.Lock()
	defer v.targetsMu.Unlock()
	if targets, ok := v.targets[target]; ok {
		return targets, nil
	}
	if v.targets == nil {
		v.targets = make(map[string][]string)
	}
	var targets []string
	for _, entry := range entries {
		paths, err := v.source.PathTargets(entry.CVLFile)
		if err != nil {
			return nil, fmt.Errorf("rule file %s: %w", entry.CVLFile, err)
		}
		for _, p := range paths {
			if p = entity.Clean(p); !walked(p, roots) {
				targets = append(targets, p)
			}
		}
	}
	v.targets[target] = targets
	return targets, nil
}

// walked reports whether a walk of one of roots visits path: whether path
// lies strictly below a root.
func walked(path string, roots []string) bool {
	for _, root := range roots {
		prefix := strings.TrimSuffix(entity.Clean(root), "/") + "/"
		if len(path) > len(prefix) && strings.HasPrefix(path, prefix) {
			return true
		}
	}
	return false
}

// searchPathUnion returns the sorted, deduplicated config search paths of
// the entries.
func searchPathUnion(entries []*cvl.ManifestEntry) []string {
	var roots []string
	for _, entry := range entries {
		roots = append(roots, entry.ConfigSearchPaths...)
	}
	slices.Sort(roots)
	return slices.Compact(roots)
}
