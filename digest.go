package configvalidator

import "fmt"

// ConfigDigest computes the SHA-256 identity of everything a validation
// of this entity reads, so two entities with equal digests validate to
// byte-identical reports, which is what lets a resumed or re-run fleet
// scan replay a journaled result instead of re-scanning (see
// FleetOptions.Journal). It is a scan's read phase without the parse: the
// entity type; per selected manifest entry, its name, tags, search paths
// and rule file with its whole parent_cvl_file chain; every config file a
// lens recognizes under the search paths (path, size, mode, owner and
// content); the Stat of each path rule's target; and the output of each
// script rule's feature. A change no scan reads, such as a modification
// time, the package database or a file no lens parses, leaves the digest
// as it was. A journaled fleet scan takes the same digest from its own
// read, so it reads each input once.
//
// target selects one manifest entity as in ValidateTarget; empty digests
// the full manifest. Panics from entity implementations are recovered into
// errors. Any error, an input the scan cannot read included, means "no
// digest": the caller must scan.
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
	if dig, err = v.engine.Digest(e, m, v.source); err != nil {
		err = fmt.Errorf("configvalidator: digest %s: %w", e.Name(), err)
	}
	return dig, err
}
