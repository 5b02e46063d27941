// Package dist implements distributed fleet validation: a coordinator
// that partitions an entity stream into shards and hands them to remote
// worker cvserver processes under time-bounded leases, plus the wire protocol
// both sides speak. The design goal is the one the paper's production
// context (tens of thousands of images a day, §5) forces: worker failure
// is a first-class, tested event, not an outage. A worker that dies — or
// merely goes silent past its lease TTL — has its lease revoked and the
// unfinished remainder of its shard reassigned to a healthy worker;
// results the dead worker already streamed back are kept, so the shard
// resumes rather than restarts, and any duplicates arriving from a
// revoked stream are dropped last-writer-wins, exactly as the journal's
// compaction resolves duplicate records.
//
// # Protocol
//
// A shard scan is one HTTP request to a worker:
//
//	POST /v1/shard/scan?shard=<id>&heartbeat=<dur>&timeout=<dur>&retries=<n>
//
// The request body is newline-delimited JSON, one EntityRecord per
// entity, each carrying the entity serialized as a configuration frame
// (internal/frames) — the same touchless capture format the validation
// service already accepts, so a worker needs no access to the scanned
// entity. The response streams newline-delimited StreamRecords: a
// heartbeat at least every heartbeat interval while scanning, one result
// per entity as it completes, and a final done trailer. Every line doubles
// as a liveness signal; the coordinator revokes the lease when the stream
// goes silent past the lease TTL.
//
// Workers write StreamRecords and the coordinator reads them with a
// hand-written codec built on internal/journal's (AppendStreamRecord,
// decodeStreamRecord). Each line is exactly the bytes json.Marshal
// writes, so a coordinator still talks to a worker that uses
// encoding/json, and the reverse. Request bodies stay on encoding/json.
//
// Workers serve the endpoint behind the validation service's existing
// admission gate, so coordinator backpressure ties directly into the
// worker's 429/Retry-After shedding and circuit breaker.
package dist

import (
	"fmt"
	"strconv"

	"configvalidator/internal/journal"
)

// EntityRecord is one request-body line: an entity to scan, shipped as a
// serialized configuration frame.
type EntityRecord struct {
	// Name is the entity's name; unique within a fleet run.
	Name string `json:"name"`
	// Digest is the coordinator-computed config digest, echoed back on the
	// entity's result so the coordinator can journal it without
	// recomputing. Empty when the digest could not be computed (the result
	// is then journaled audit-only, as in a local run).
	Digest string `json:"digest,omitempty"`
	// Frame is the entity serialized with frames.Write (JSON encodes it as
	// base64).
	Frame []byte `json:"frame"`
}

// Stream-record types.
const (
	// TypeHeartbeat is a liveness line emitted at least every heartbeat
	// interval while the worker is scanning.
	TypeHeartbeat = "heartbeat"
	// TypeResult carries one completed entity.
	TypeResult = "result"
	// TypeDone is the trailer after the final result; its absence tells
	// the coordinator the stream was cut short.
	TypeDone = "done"
	// TypeDegradedJournal reports that the worker's journal segment for
	// this shard stopped accepting writes (disk pressure); the scan
	// continues and results keep streaming, but worker-side resume is no
	// longer available for the shard. Emitted at most once per stream.
	TypeDegradedJournal = "degraded-journal"
)

// StreamRecord is one response line from a worker.
type StreamRecord struct {
	Type string `json:"type"`
	// Entity and Digest identify the completed entity (Type "result");
	// Digest echoes the request's EntityRecord.Digest.
	Entity string `json:"entity,omitempty"`
	Digest string `json:"digest,omitempty"`
	// Resumed reports the worker replayed the result from its local
	// journal segment instead of re-scanning.
	Resumed bool `json:"resumed,omitempty"`
	// Err and ErrKind carry a failed scan: the error text and its
	// ErrorsByKind classification, computed worker-side where the error
	// chain still exists.
	Err     string `json:"err,omitempty"`
	ErrKind string `json:"err_kind,omitempty"`
	// Report is the completed report in its journaled form, which
	// reconstructs byte-identically on the coordinator.
	Report *journal.ReportRecord `json:"report,omitempty"`
	// Scanned is the running result count (heartbeats) or the final count
	// (done trailer).
	Scanned int `json:"scanned,omitempty"`
}

// AppendStreamRecord appends rec's JSON encoding to dst, byte-identical to
// json.Marshal(rec), without a trailing newline.
func AppendStreamRecord(dst []byte, rec *StreamRecord) []byte {
	dst = append(dst, `{"type":`...)
	dst = journal.AppendString(dst, rec.Type)
	dst = journal.AppendField(dst, "entity", rec.Entity)
	dst = journal.AppendField(dst, "digest", rec.Digest)
	if rec.Resumed {
		dst = append(dst, `,"resumed":true`...)
	}
	dst = journal.AppendField(dst, "err", rec.Err)
	dst = journal.AppendField(dst, "err_kind", rec.ErrKind)
	if rec.Report != nil {
		dst = append(dst, `,"report":`...)
		dst = journal.AppendReport(dst, rec.Report)
	}
	if rec.Scanned != 0 {
		dst = append(dst, `,"scanned":`...)
		dst = strconv.AppendInt(dst, int64(rec.Scanned), 10)
	}
	return append(dst, '}')
}

// decodeStreamRecord decodes one response line. The report shares the
// line's memory; Entity, Digest, Err and ErrKind own theirs, because the
// coordinator keeps them after it drops the report.
func decodeStreamRecord(d *journal.Decoder, line string) (StreamRecord, error) {
	d.Reset(line)
	var rec StreamRecord
	if d.Object() {
		for i := 0; ; i++ {
			key, ok := d.Member(i)
			if !ok {
				break
			}
			switch key {
			case "type":
				d.String(&rec.Type)
			case "entity":
				d.OwnedString(&rec.Entity)
			case "digest":
				d.OwnedString(&rec.Digest)
			case "resumed":
				d.Bool(&rec.Resumed)
			case "err":
				d.OwnedString(&rec.Err)
			case "err_kind":
				d.OwnedString(&rec.ErrKind)
			case "report":
				d.Report(&rec.Report)
			case "scanned":
				d.Int(&rec.Scanned)
			default:
				d.Skip()
			}
		}
	}
	return rec, d.End()
}

// RemoteError is a worker-side scan failure reconstructed on the
// coordinator. It implements configvalidator.ErrorKinder, so the kind the
// worker classified (panic, timeout, permanent, ...) survives the wire and
// lands in the same FleetSummary.ErrorsByKind bucket a local run would
// use.
type RemoteError struct {
	// Worker is the base URL of the worker that reported the failure.
	Worker string
	// Kind is the worker-side ClassifyScanError result.
	Kind string
	// Msg is the worker-side error text.
	Msg string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("worker %s: %s", e.Worker, e.Msg)
}

// ErrorKind returns the worker-side classification.
func (e *RemoteError) ErrorKind() string { return e.Kind }
