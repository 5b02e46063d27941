package journal

import (
	"strconv"
	"strings"

	"configvalidator/internal/cvl"
	"configvalidator/internal/engine"
	"configvalidator/internal/jsonwire"
)

// The record codec writes and reads journal records on jsonwire's
// primitives, encoding reports from and decoding them straight into
// *engine.Report. The bytes are json.Marshal's for the record schema
//
//	{"entity","digest"?,"err"?,"report"?:{"entity","type","results":[
//	  {"entity"?,"manifest_entity"?,"status","message"?,"detail"?,"file"?,
//	   "rule"?:{"name","type"?,"tags"?,"severity"?,"suggested_action"?}}]}}
//
// so journals written before the codec existed replay unchanged. A rule
// carries only the fields reports render; the full specification lives in
// the rule library, whose fingerprint participates in the config digest.

// appendRecord appends rec's JSON encoding to dst.
func appendRecord(dst []byte, rec *Record) []byte {
	dst = append(dst, `{"entity":`...)
	dst = jsonwire.AppendString(dst, rec.Entity)
	dst = jsonwire.AppendField(dst, "digest", rec.Digest)
	dst = jsonwire.AppendField(dst, "err", rec.Err)
	if rec.Report != nil {
		dst = append(dst, `,"report":`...)
		dst = AppendReport(dst, rec.Report)
	}
	return append(dst, '}')
}

// AppendReport appends the JSON encoding of the report rr handles to dst.
// A nil result list encodes as empty.
func AppendReport(dst []byte, rr *ReportRecord) []byte {
	dst = append(dst, `{"entity":`...)
	dst = jsonwire.AppendString(dst, rr.EntityName)
	dst = append(dst, `,"type":`...)
	dst = jsonwire.AppendString(dst, rr.EntityType)
	dst = append(dst, `,"results":[`...)
	for i, r := range rr.Results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendResult(dst, r)
	}
	return append(dst, ']', '}')
}

func appendResult(dst []byte, r *engine.Result) []byte {
	dst = append(dst, '{')
	if r.EntityName != "" {
		dst = append(dst, `"entity":`...)
		dst = append(jsonwire.AppendString(dst, r.EntityName), ',')
	}
	if r.ManifestEntity != "" {
		dst = append(dst, `"manifest_entity":`...)
		dst = append(jsonwire.AppendString(dst, r.ManifestEntity), ',')
	}
	dst = append(dst, `"status":`...)
	dst = strconv.AppendInt(dst, int64(r.Status), 10)
	dst = jsonwire.AppendField(dst, "message", r.Message)
	dst = jsonwire.AppendField(dst, "detail", r.Detail)
	dst = jsonwire.AppendField(dst, "file", r.File)
	if rule := r.Rule; rule != nil {
		dst = append(dst, `,"rule":{"name":`...)
		dst = jsonwire.AppendString(dst, rule.Name)
		dst = jsonwire.AppendField(dst, "type", rule.Type.String())
		if len(rule.Tags) > 0 {
			dst = append(dst, `,"tags":[`...)
			for i, tag := range rule.Tags {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = jsonwire.AppendString(dst, tag)
			}
			dst = append(dst, ']')
		}
		dst = jsonwire.AppendField(dst, "severity", rule.Severity)
		dst = jsonwire.AppendField(dst, "suggested_action", rule.SuggestedAction)
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// maxInternedRules bounds a Decoder's rule table. The built-in library has
// 135 rules; a table that fills up is cleared and refilled.
const maxInternedRules = 1024

// Decoder reads journal records and the reports inside shard-stream lines.
// Strings of a decoded result share the decoded text's memory. Rules are
// interned: a rule object whose text the Decoder has seen before decodes
// to the same *cvl.Rule, which owns its strings, so a run builds each
// distinct rule once per Decoder instead of once per result and a kept
// rule does not pin the text it came from. Rules are shared between the
// reports a Decoder returns and must not be modified. A Decoder is not
// safe for concurrent use.
type Decoder struct {
	jsonwire.Decoder

	rules   map[string]*cvl.Rule // by the rule object's text, which the key owns
	rule    jsonwire.Decoder     // decodes a rule from its owned text
	results []engine.Result      // scratch for one report's results
}

// record decodes one journal record payload.
func (d *Decoder) record(data string) (Record, error) {
	d.Reset(data)
	var rec Record
	if d.Object() {
		for i := 0; ; i++ {
			key, ok := d.Member(i)
			if !ok {
				break
			}
			switch key {
			case "entity":
				d.OwnedString(&rec.Entity)
			case "digest":
				d.OwnedString(&rec.Digest)
			case "err":
				d.OwnedString(&rec.Err)
			case "report":
				d.Report(&rec.Report)
			default:
				d.Skip()
			}
		}
	}
	return rec, d.End()
}

// Report decodes a report value into *dst; null sets it to nil. The
// report's results are allocated as one block, and its result list is
// never nil.
func (d *Decoder) Report(dst **ReportRecord) {
	if !d.Object() {
		if d.Err() == nil {
			*dst = nil
		}
		return
	}
	rep := &engine.Report{}
	for i := 0; ; i++ {
		key, ok := d.Member(i)
		if !ok {
			break
		}
		switch key {
		case "entity":
			d.String(&rep.EntityName)
		case "type":
			d.String(&rep.EntityType)
		case "results":
			rep.Results = d.resultList()
		default:
			d.Skip()
		}
	}
	if rep.Results == nil {
		rep.Results = []*engine.Result{}
	}
	if d.Err() == nil {
		*dst = (*ReportRecord)(rep)
	}
}

// resultList decodes a results array; null decodes as nil.
func (d *Decoder) resultList() []*engine.Result {
	if !d.Array() {
		return nil
	}
	d.results = d.results[:0]
	for i := 0; d.Element(i); i++ {
		d.results = append(d.results, engine.Result{})
		d.result(&d.results[len(d.results)-1])
	}
	var out []*engine.Result
	if d.Err() == nil {
		block := make([]engine.Result, len(d.results))
		copy(block, d.results)
		out = make([]*engine.Result, len(block))
		for k := range block {
			out[k] = &block[k]
		}
	}
	// Drop the scratch's references so it does not keep this text alive.
	clear(d.results)
	return out
}

// result decodes one element of a results array into *r.
func (d *Decoder) result(r *engine.Result) {
	if !d.Object() {
		return
	}
	for i := 0; ; i++ {
		key, ok := d.Member(i)
		if !ok {
			return
		}
		switch key {
		case "entity":
			d.String(&r.EntityName)
		case "manifest_entity":
			d.String(&r.ManifestEntity)
		case "status":
			status := int(r.Status)
			d.Int(&status)
			r.Status = engine.Status(status)
		case "message":
			d.String(&r.Message)
		case "detail":
			d.String(&r.Detail)
		case "file":
			d.String(&r.File)
		case "rule":
			r.Rule = d.internRule()
		default:
			d.Skip()
		}
	}
}

// internRule decodes a rule value, or returns nil for null. It looks the
// value's text up before decoding any field; on a miss it decodes an
// owned copy of the text, which becomes the table key.
func (d *Decoder) internRule() *cvl.Rule {
	text := d.Raw()
	if d.Err() != nil || text == "null" {
		return nil
	}
	if rule, ok := d.rules[text]; ok {
		return rule
	}
	text = strings.Clone(text)
	rule := decodeRule(&d.rule, text)
	if err := d.rule.End(); err != nil {
		d.Fail("rule: " + err.Error())
		return nil
	}
	if d.rules == nil {
		d.rules = make(map[string]*cvl.Rule)
	} else if len(d.rules) >= maxInternedRules {
		clear(d.rules)
	}
	d.rules[text] = rule
	return rule
}

// decodeRule decodes the rule object text holds; its strings share text.
// A rule type that does not parse leaves the zero type.
func decodeRule(d *jsonwire.Decoder, text string) *cvl.Rule {
	d.Reset(text)
	rule := &cvl.Rule{}
	if !d.Object() {
		return rule
	}
	var typ string
	for i := 0; ; i++ {
		key, ok := d.Member(i)
		if !ok {
			break
		}
		switch key {
		case "name":
			d.String(&rule.Name)
		case "type":
			d.String(&typ)
		case "tags":
			rule.Tags = decodeTags(d)
		case "severity":
			d.String(&rule.Severity)
		case "suggested_action":
			d.String(&rule.SuggestedAction)
		default:
			d.Skip()
		}
	}
	if t, err := cvl.ParseRuleType(typ); err == nil {
		rule.Type = t
	}
	return rule
}

// decodeTags decodes a tags array; null decodes as nil and [] as empty.
func decodeTags(d *jsonwire.Decoder) []string {
	if !d.Array() {
		return nil
	}
	tags := []string{}
	for i := 0; d.Element(i); i++ {
		var tag string
		d.String(&tag)
		tags = append(tags, tag)
	}
	return tags
}
