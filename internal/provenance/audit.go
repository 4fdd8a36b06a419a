package provenance

import (
	"fmt"
	"sort"

	"repro/internal/rel"
)

// Groundwork for the paper's second ongoing-work item (secure network
// provenance, ref [9]): tamper-evident commitments over each node's
// provenance partition, and a cross-node consistency auditor. A full
// SNP implementation adds authenticated channels and evidence
// protocols; the commitment/audit layer below provides the integrity
// primitives those protocols check.

// Commitment binds a node to the exact contents of its provenance
// partition at a version.
type Commitment struct {
	Addr    string
	Version uint64
	Digest  rel.ID
}

// Digest computes a deterministic hash over the partition's rendered
// prov and ruleExec relations (sorted canonical encodings).
func (s *Store) Digest() rel.ID {
	var b []byte
	for _, t := range s.ProvTuples() {
		b = rel.AppendTuple(b, t)
	}
	for _, t := range s.ExecTuples() {
		b = rel.AppendTuple(b, t)
	}
	return rel.HashBytes(b)
}

// Commit returns the current commitment.
func (s *Store) Commit() Commitment {
	return Commitment{Addr: s.addr, Version: s.Version(), Digest: s.Digest()}
}

// VerifyCommitment recomputes the digest and compares. A mismatch at
// the same version means the partition was tampered with outside the
// maintenance API.
func VerifyCommitment(s *Store, c Commitment) error {
	if s.addr != c.Addr {
		return fmt.Errorf("provenance: commitment for %s checked against %s", c.Addr, s.addr)
	}
	if s.Version() != c.Version {
		return fmt.Errorf("provenance: version moved from %d to %d; re-commit", c.Version, s.Version())
	}
	if got := s.Digest(); got != c.Digest {
		return fmt.Errorf("provenance: digest mismatch at version %d: partition was modified", c.Version)
	}
	return nil
}

// Audit cross-checks a set of partitions (addr -> store) for
// distributed referential integrity:
//
//  1. every derived prov entry at node A names a rule execution that
//     exists at its claimed RLoc;
//  2. every rule execution's input VIDs are pinned at the executing
//     node;
//  3. every rule execution supports at least one prov entry somewhere
//     (no orphan executions).
//
// It returns human-readable findings, empty when consistent.
func Audit(stores map[string]*Store) []string {
	var findings []string
	addrs := make([]string, 0, len(stores))
	for a := range stores {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)

	referenced := map[rel.ID]bool{}
	for _, a := range addrs {
		for e := range stores[a].prov.all() {
			for _, d := range e.v {
				if d.RID.IsZero() {
					continue
				}
				referenced[d.RID] = true
				home, ok := stores[d.RLoc]
				if !ok {
					findings = append(findings, fmt.Sprintf(
						"%s: prov entry for %s names unknown node %s", a, e.id.Short(), d.RLoc))
					continue
				}
				if _, ok := home.Exec(d.RID); !ok {
					findings = append(findings, fmt.Sprintf(
						"%s: prov entry for %s references missing exec %s at %s",
						a, e.id.Short(), d.RID.Short(), d.RLoc))
				}
			}
		}
	}
	for _, a := range addrs {
		s := stores[a]
		for e := range s.exec.all() {
			for _, vid := range e.v.VIDs {
				if _, ok := s.pins.get(vid); !ok {
					findings = append(findings, fmt.Sprintf(
						"%s: exec %s input %s not pinned", a, e.id.Short(), vid.Short()))
				}
			}
			if !referenced[e.id] {
				findings = append(findings, fmt.Sprintf(
					"%s: exec %s supports no prov entry anywhere", a, e.id.Short()))
			}
		}
	}
	sort.Strings(findings)
	return findings
}

// TamperAddProv injects a forged prov entry, bypassing maintenance.
// Test-only hook for exercising VerifyCommitment and Audit.
func (s *Store) TamperAddProv(t rel.Tuple, e Entry) {
	s.addEntry(t, e)
}

// TamperAddExec injects a forged rule execution, bypassing maintenance.
// Test-only hook for exercising traversal over adversarial graphs.
func (s *Store) TamperAddExec(rid rel.ID, rule string, inputs []rel.Tuple) {
	vids := make([]rel.ID, len(inputs))
	for i, in := range inputs {
		vids[i] = in.VID()
		s.pinTuple(in)
	}
	e := &ExecEntry{RID: rid, Rule: rule, VIDs: vids}
	if b, pos, ok := s.exec.locate(rid); ok {
		s.exec.set(b, pos, e)
		s.exec.side[b][pos] = 1
	} else {
		s.exec.insert(b, pos, rid, e, 1)
	}
	s.version++
}
