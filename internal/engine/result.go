// Package engine implements the Rule Engine of ConfigValidator (§3.1): it
// applies CVL validation checks to normalized configuration data and
// produces validation results. Tree, schema, path, and script rules are
// evaluated per entity; composite rules are evaluated as a logical
// combination over per-entity rule results and configuration values.
package engine

import (
	"fmt"

	"configvalidator/internal/cvl"
)

// Status is the outcome of applying one rule.
type Status int

// Statuses.
const (
	// StatusPass means the configuration matched the rule's expectation.
	StatusPass Status = iota + 1
	// StatusFail means a misconfiguration was detected.
	StatusFail
	// StatusNotApplicable means the rule had nothing to check on this
	// entity (no matching config files, feature unavailable, entity-type
	// filter).
	StatusNotApplicable
	// StatusError means the rule could not be evaluated (parse failure,
	// bad regex, missing column).
	StatusError
	// StatusDegraded means the input data for the check was incomplete —
	// an unreadable or corrupt configuration file, a panicking lens, a
	// crashed rule evaluation. Unlike StatusError (a bad rule), degraded
	// results point at the entity's data; unlike a scan error, they never
	// abort the entity: one unreadable sshd_config must not hide the 400
	// other results of the scan.
	StatusDegraded
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusPass:
		return "PASS"
	case StatusFail:
		return "FAIL"
	case StatusNotApplicable:
		return "N/A"
	case StatusError:
		return "ERROR"
	case StatusDegraded:
		return "DEGRADED"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result is one rule evaluation outcome, the unit the output-processing
// module formats.
type Result struct {
	// EntityName is the validated entity (hostname, image ref, ...).
	EntityName string
	// ManifestEntity is the manifest entry the rule belongs to ("nginx").
	ManifestEntity string
	// Rule is the evaluated rule.
	Rule *cvl.Rule
	// Status is the outcome.
	Status Status
	// Message is the chosen rule description for the outcome (the
	// matched / not-matched / not-present description from the rule).
	Message string
	// Detail describes what was actually observed, for reports.
	Detail string
	// File is the configuration file involved, when applicable.
	File string
}

// verdict is the entity-independent part of a Result: everything except
// the EntityName/ManifestEntity/Rule attribution stamped per report. Rule
// evaluation produces verdicts and the verdict memo stores them.
type verdict struct {
	status  Status
	message string
	detail  string
	file    string
}

func pass(msg, file string) verdict {
	return verdict{status: StatusPass, message: msg, file: file}
}

func fail(msg, detail, file string) verdict {
	return verdict{status: StatusFail, message: msg, detail: detail, file: file}
}

func errorVerdict(err error) verdict {
	return verdict{status: StatusError, message: err.Error()}
}

func degraded(err error) verdict {
	return verdict{status: StatusDegraded, message: err.Error()}
}

// set copies a verdict into the result.
func (r *Result) set(v verdict) {
	r.Status, r.Message, r.Detail, r.File = v.status, v.message, v.detail, v.file
}

// Passed reports whether the result is a pass.
func (r *Result) Passed() bool { return r.Status == StatusPass }

// Report aggregates the results of validating one entity against a
// manifest.
type Report struct {
	// EntityName and EntityType identify the validated entity.
	EntityName string
	EntityType string
	// Results holds every rule outcome in evaluation order.
	Results []*Result
}

// Counts tallies results by status.
func (rep *Report) Counts() map[Status]int {
	out := make(map[Status]int, 4)
	for _, r := range rep.Results {
		out[r.Status]++
	}
	return out
}

// Failed returns only the failing results.
func (rep *Report) Failed() []*Result {
	var out []*Result
	for _, r := range rep.Results {
		if r.Status == StatusFail {
			out = append(out, r)
		}
	}
	return out
}

// Degraded returns the results whose input data was incomplete — the
// checks an operator cannot trust on this scan.
func (rep *Report) Degraded() []*Result {
	var out []*Result
	for _, r := range rep.Results {
		if r.Status == StatusDegraded {
			out = append(out, r)
		}
	}
	return out
}

// ByTag returns results whose rule carries the tag.
func (rep *Report) ByTag(tag string) []*Result {
	var out []*Result
	for _, r := range rep.Results {
		if r.Rule != nil && r.Rule.HasTag(tag) {
			out = append(out, r)
		}
	}
	return out
}
