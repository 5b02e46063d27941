// Package analysis implements the CVL linter: a multi-pass static
// analyzer that takes a rule project (manifests, rule files, and their
// inheritance parents), or one file alone (AnalyzeFile), and emits
// positioned, coded diagnostics.
//
// Beyond per-file syntax, keyword and style checks, it resolves the
// parent_cvl_file inheritance graph (missing parents, cycles, dead
// overrides/disables, silent shadowing), performs cross-file semantic
// checks (undefined composite references, invalid regexes, contradictory
// value matchers), and validates manifest reachability (orphaned rule
// files, tag filters that select nothing). Every diagnostic carries a
// stable code (CVL001…, see Catalog), a severity, and a file:line:col
// position threaded up from the YAML decoder.
//
// Results render as human text, JSON, or SARIF 2.1.0 (render.go), and a
// suppression baseline (baseline.go) lets existing findings be frozen so
// CI only fails on new ones.
package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"configvalidator/internal/yaml"
)

// Severity classifies a diagnostic.
type Severity int

// Severity levels. Errors make the project unusable or mask real
// misconfigurations; warnings are maintainability and usability hazards.
const (
	SevError Severity = iota + 1
	SevWarning
)

// String returns the severity name.
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Diagnostic is one positioned, coded analyzer finding.
type Diagnostic struct {
	// Code is the stable diagnostic code, e.g. "CVL101" (see Catalog).
	Code string
	// Severity is error or warning.
	Severity Severity
	// File is the project path of the offending file.
	File string
	// Line and Col are the 1-based position of the offending key or rule.
	Line, Col int
	// Rule is the rule name the finding concerns, when attributable.
	Rule string
	// Msg describes the finding.
	Msg string
	// Related points at other locations involved in the finding — the
	// replaced parent rule, the subsuming sibling, folded composite
	// members. Rendered as secondary locations in text, JSON, and SARIF.
	Related []RelatedPos
}

// RelatedPos is a secondary location attached to a diagnostic.
type RelatedPos struct {
	// File, Line, Col locate the related rule.
	File string
	Line int
	Col  int
	// Rule is the related rule's name.
	Rule string
	// Msg says how the location relates to the finding.
	Msg string
}

// String renders "file:line:col: severity CODE: [rule "x": ] msg".
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%d:%d: %s %s: ", d.File, d.Line, d.Col, d.Severity, d.Code)
	if d.Rule != "" {
		fmt.Fprintf(&b, "rule %q: ", d.Rule)
	}
	b.WriteString(d.Msg)
	return b.String()
}

// Project is the unit of analysis: a set of rule files and manifests,
// keyed by path. Parent and manifest references are resolved against
// these paths as the loader resolves them: relative to the directory of
// the manifest that reaches the referencing file. A file no manifest
// reaches, or one analyzed alone (Options.ExternalParents), resolves its
// references as-is, relative to its own directory, or relative to a load
// root.
type Project struct {
	files    map[string][]byte
	order    []string
	manifest map[string]bool
	roots    []string
}

// NewProject returns an empty project.
func NewProject() *Project {
	return &Project{files: map[string][]byte{}, manifest: map[string]bool{}}
}

// AddRuleFile adds a CVL rule file under the given project path.
func (p *Project) AddRuleFile(path string, content []byte) {
	p.add(path, content, false)
}

// AddManifest adds a manifest file under the given project path.
func (p *Project) AddManifest(path string, content []byte) {
	p.add(path, content, true)
}

func (p *Project) add(path string, content []byte, isManifest bool) {
	path = filepath.ToSlash(filepath.Clean(path))
	if _, ok := p.files[path]; !ok {
		p.order = append(p.order, path)
	}
	p.files[path] = content
	p.manifest[path] = isManifest
}

// Len reports how many files the project holds.
func (p *Project) Len() int { return len(p.order) }

// IsManifestPath reports whether a file name denotes a manifest by
// convention: its base name contains "manifest".
func IsManifestPath(path string) bool {
	return strings.Contains(strings.ToLower(filepath.Base(path)), "manifest")
}

// AddDir walks dir and adds every .yaml/.yml file, classifying manifests
// by name (IsManifestPath). The directory becomes a resolution root for
// project-relative parent and cvl_file references.
func (p *Project) AddDir(dir string) error {
	p.roots = append(p.roots, filepath.ToSlash(filepath.Clean(dir)))
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		ext := strings.ToLower(filepath.Ext(path))
		if ext != ".yaml" && ext != ".yml" {
			return nil
		}
		content, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		p.add(path, content, IsManifestPath(path))
		return nil
	})
}

// resolveRef resolves a file reference appearing in the file `from`: the
// reference as-is, relative to from's directory, then relative to each
// load root. It returns the matching project path.
func (p *Project) resolveRef(from, ref string) (string, bool) {
	candidates := []string{ref, filepath.Join(filepath.Dir(from), ref)}
	for _, root := range p.roots {
		candidates = append(candidates, filepath.Join(root, ref))
	}
	return p.find(candidates...)
}

// find returns the first candidate path the project holds.
func (p *Project) find(candidates ...string) (string, bool) {
	for _, c := range candidates {
		c = filepath.ToSlash(filepath.Clean(c))
		if _, ok := p.files[c]; ok {
			return c, true
		}
	}
	return "", false
}

// Options tunes analysis.
type Options struct {
	// ExternalParents downgrades unresolvable parent_cvl_file references
	// from errors to warnings. Set it when analyzing a file outside its
	// project (for example the single-file POST /v1/lint endpoint), where
	// the parent legitimately cannot be present.
	ExternalParents bool
	// NoSemantic skips the constraint-level semantic pass (the CVL4xx
	// family produced by internal/analysis/sem). On by default because
	// semantic findings — unsatisfiable rules, dead overrides — are
	// exactly the silent misconfigurations the analyzer exists to catch.
	NoSemantic bool
}

// Result is the outcome of one analysis run.
type Result struct {
	// Diagnostics is sorted by file, line, column, then code.
	Diagnostics []Diagnostic
	// FilesChecked is how many project files were analyzed.
	FilesChecked int
}

// Counts returns the number of error- and warning-level diagnostics.
func (r *Result) Counts() (errors, warnings int) {
	return countLevels(r.Diagnostics)
}

func countLevels(diags []Diagnostic) (errors, warnings int) {
	for _, d := range diags {
		if d.Severity == SevError {
			errors++
		} else {
			warnings++
		}
	}
	return errors, warnings
}

// Analyze runs every pass over the project and returns the sorted
// diagnostics.
func Analyze(p *Project, opts Options) *Result {
	a := newAnalyzer(p, opts)
	a.parseRuleFiles()
	a.parseManifests()
	a.reach()
	a.resolveInheritance()
	a.checkRules()
	a.checkComposites()
	a.checkReplacedRules()
	a.checkSemantics()
	a.checkReachability()
	sort.SliceStable(a.diags, func(i, j int) bool {
		x, y := a.diags[i], a.diags[j]
		if x.File != y.File {
			return x.File < y.File
		}
		if x.Line != y.Line {
			return x.Line < y.Line
		}
		if x.Col != y.Col {
			return x.Col < y.Col
		}
		if x.Code != y.Code {
			return x.Code < y.Code
		}
		return x.Msg < y.Msg
	})
	return &Result{Diagnostics: a.diags, FilesChecked: p.Len()}
}

// AnalyzeFile analyzes a single rule file (or, by IsManifestPath, a
// manifest) in isolation. ExternalParents is always forced on since a
// lone file cannot carry its parents: they are reported as warnings, not
// errors.
func AnalyzeFile(path string, content []byte, opts Options) *Result {
	p := NewProject()
	if IsManifestPath(path) {
		p.AddManifest(path, content)
	} else {
		p.AddRuleFile(path, content)
	}
	opts.ExternalParents = true
	return Analyze(p, opts)
}

func posOr(p yaml.Pos) (int, int) {
	if p.IsZero() {
		return 1, 1
	}
	return p.Line, p.Col
}
