package configvalidator

import (
	"encoding/hex"
	"fmt"
)

// ConfigDigest computes the SHA-256 identity of everything a validation
// of this entity reads, so two entities with equal digests validate to
// byte-identical reports, which is what lets a resumed or re-run fleet
// scan replay a journaled result instead of re-scanning (see
// FleetOptions.Journal). The engine computes it from the inputs its scan
// evaluates, each beside the scan step that reads it:
//
//   - the entity type, by which rules are selected and the report typed;
//   - per selected manifest entry, its name, tags and search paths, and
//     the rule file with its whole parent_cvl_file chain, content-hashed
//     (rule resolution);
//   - every config file a lens recognizes under the search paths: path,
//     size, mode, owner and content SHA-256 (the walk, then read and
//     parse);
//   - per path rule, the mode and owner of its path_name or its absence,
//     and per script rule, its runtime feature's output or absence (rule
//     evaluation).
//
// A change the scan cannot see — a modification time, the package
// database, a file no lens parses — leaves the digest as it was, and the
// journaled report replays.
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
	m, err := v.selection(target)
	if err != nil {
		return "", err
	}
	sum, err := v.engine.Digest(e, m, v.source)
	if err != nil {
		return "", fmt.Errorf("configvalidator: digest %s: %w", e.Name(), err)
	}
	return hex.EncodeToString(sum[:]), nil
}
