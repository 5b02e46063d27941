package journal

import (
	"configvalidator/internal/cvl"
	"configvalidator/internal/engine"
)

// The record codec's oracle: the schema the journal encoded with
// encoding/json before the codec existed, and the conversions its record
// types made from and to engine.Report. Encoding a record must give
// json.Marshal's bytes for the oracle form of its report, and decoding
// must give the report fromOracle rebuilds from json.Unmarshal's value.

type oracleRecord struct {
	Entity string        `json:"entity"`
	Digest string        `json:"digest,omitempty"`
	Err    string        `json:"err,omitempty"`
	Report *oracleReport `json:"report,omitempty"`
}

type oracleReport struct {
	Entity  string         `json:"entity"`
	Type    string         `json:"type"`
	Results []ResultRecord `json:"results"`
}

// ResultRecord is one serialized rule outcome.
type ResultRecord struct {
	Entity         string      `json:"entity,omitempty"`
	ManifestEntity string      `json:"manifest_entity,omitempty"`
	Status         int         `json:"status"`
	Message        string      `json:"message,omitempty"`
	Detail         string      `json:"detail,omitempty"`
	File           string      `json:"file,omitempty"`
	Rule           *RuleRecord `json:"rule,omitempty"`
}

// RuleRecord is the serialized part of a rule: the fields reports render.
type RuleRecord struct {
	Name            string   `json:"name"`
	Type            string   `json:"type,omitempty"`
	Tags            []string `json:"tags,omitempty"`
	Severity        string   `json:"severity,omitempty"`
	SuggestedAction string   `json:"suggested_action,omitempty"`
}

// toOracle is the serialized form of rep, as NewReportRecord built it.
func toOracle(rep *engine.Report) *oracleReport {
	if rep == nil {
		return nil
	}
	out := &oracleReport{Entity: rep.EntityName, Type: rep.EntityType, Results: make([]ResultRecord, len(rep.Results))}
	for i, r := range rep.Results {
		out.Results[i] = ResultRecord{Entity: r.EntityName, ManifestEntity: r.ManifestEntity, Status: int(r.Status),
			Message: r.Message, Detail: r.Detail, File: r.File}
		if r.Rule != nil {
			out.Results[i].Rule = &RuleRecord{Name: r.Rule.Name, Type: r.Rule.Type.String(), Tags: r.Rule.Tags,
				Severity: r.Rule.Severity, SuggestedAction: r.Rule.SuggestedAction}
		}
	}
	return out
}

// fromOracle is the report a serialized form rebuilds, as
// ReportRecord.Report rebuilt it.
func fromOracle(o *oracleReport) *engine.Report {
	if o == nil {
		return nil
	}
	rep := &engine.Report{EntityName: o.Entity, EntityType: o.Type, Results: make([]*engine.Result, len(o.Results))}
	for i, r := range o.Results {
		res := &engine.Result{EntityName: r.Entity, ManifestEntity: r.ManifestEntity, Status: engine.Status(r.Status),
			Message: r.Message, Detail: r.Detail, File: r.File}
		if r.Rule != nil {
			res.Rule = &cvl.Rule{Name: r.Rule.Name, Tags: r.Rule.Tags, Severity: r.Rule.Severity,
				SuggestedAction: r.Rule.SuggestedAction}
			if t, err := cvl.ParseRuleType(r.Rule.Type); err == nil {
				res.Rule.Type = t
			}
		}
		rep.Results[i] = res
	}
	return rep
}

// oracleOf is rec in the oracle schema.
func oracleOf(rec Record) oracleRecord {
	return oracleRecord{Entity: rec.Entity, Digest: rec.Digest, Err: rec.Err, Report: toOracle(rec.Report.Report())}
}

// recordOf is the record an oracle value decodes to.
func recordOf(o oracleRecord) Record {
	return Record{Entity: o.Entity, Digest: o.Digest, Err: o.Err, Report: NewReportRecord(fromOracle(o.Report))}
}
