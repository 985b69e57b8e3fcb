package store

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"rrbus/internal/scenario"
)

// The audit half of the store: read-only tooling over the directory
// layout (jobs/<hh>/<hash>.json entries, plans/<hash>.json manifests)
// that cmd/rrbus-store exposes as `ls` and `verify`. An archived store
// is only as trustworthy as its last audit — a recorded row that no
// longer verifies must surface before a Session silently serves the
// sweep it belongs to.

// PlanInfo summarizes one recorded plan manifest for auditing: identity,
// job count and how many of its job hashes currently have a recorded
// row (the store's hit coverage for a re-run of that plan).
type PlanInfo struct {
	Hash      string `json:"hash"`
	Name      string `json:"name,omitempty"`
	Generator string `json:"generator,omitempty"`
	// Jobs is the manifest's job count; Present is how many of those job
	// hashes have a row entry on disk right now.
	Jobs    int `json:"jobs"`
	Present int `json:"present"`
	// Err reports an unreadable manifest ("" = healthy); ls keeps
	// listing the rest of the store around it.
	Err string `json:"error,omitempty"`
}

// PlanInfos summarizes every recorded plan manifest, in lexical hash
// order.
func (d *Dir) PlanInfos() ([]PlanInfo, error) {
	hashes, err := d.Plans()
	if err != nil {
		return nil, err
	}
	infos := make([]PlanInfo, 0, len(hashes))
	for _, h := range hashes {
		infos = append(infos, d.PlanInfo(h))
	}
	return infos, nil
}

// PlanInfo summarizes one recorded plan manifest. An unreadable or
// missing manifest is reported in the Err field, not as an error return,
// matching how PlanInfos keeps listing a store around damage.
func (d *Dir) PlanInfo(planHash string) PlanInfo {
	info := PlanInfo{Hash: planHash}
	m, err := d.readManifest(planHash)
	if err != nil {
		info.Err = err.Error()
		return info
	}
	info.Name = m.Name
	info.Generator = m.Generator
	info.Jobs = len(m.Jobs)
	for _, jh := range m.Jobs {
		if _, err := os.Stat(d.jobPath(jh)); err == nil {
			info.Present++
		}
	}
	return info
}

// PlanSpec returns the declarative spec a recorded plan manifest carries
// — what lets a reader recompile the plan and serve its rows without the
// original scenario file. Manifests recorded before specs existed return
// an error naming the gap.
func (d *Dir) PlanSpec(planHash string) (*scenario.Plan, error) {
	m, err := d.readManifest(planHash)
	if err != nil {
		return nil, err
	}
	if m.Spec == nil {
		return nil, fmt.Errorf("store: plan %s: manifest records no spec (written before specs were recorded)", planHash)
	}
	return m.Spec, nil
}

// readManifest reads and validates one plan manifest.
func (d *Dir) readManifest(planHash string) (*planManifest, error) {
	if err := checkHash(planHash); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(d.root, "plans", planHash+".json"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var m planManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: plan %s: manifest does not parse: %v", planHash, err)
	}
	if m.Schema > scenario.ResultSchema {
		return nil, fmt.Errorf("store: plan %s: manifest schema %d but this build reads <= %d — store written by a newer version?",
			planHash, m.Schema, scenario.ResultSchema)
	}
	if m.Hash != planHash {
		return nil, fmt.Errorf("store: plan %s: manifest claims hash %s", planHash, m.Hash)
	}
	return &m, nil
}

// Issue is one verification failure.
type Issue struct {
	// Path is the offending file, relative to the store root.
	Path string `json:"path"`
	Err  string `json:"error"`
}

// AuditReport is the outcome of a full store verification.
type AuditReport struct {
	// Jobs and Plans count the entries and manifests checked (healthy or
	// not); Issues lists every failure in path order.
	Jobs   int     `json:"jobs"`
	Plans  int     `json:"plans"`
	Issues []Issue `json:"issues,omitempty"`
}

// OK reports whether the audit found no issues.
func (r *AuditReport) OK() bool { return len(r.Issues) == 0 }

// Verify walks every job entry and plan manifest in the store,
// re-checking integrity checksums, schema versions and filing: an entry
// must parse, be filed under its own hash in the right prefix
// directory, carry a readable schema, and its stored checksum must
// match the row bytes. Stray files (anything that is not a
// <hash>.json entry, including leftover temp files) are reported too —
// verify audits archives at rest, not stores mid-write.
func (d *Dir) Verify() (*AuditReport, error) {
	rep := &AuditReport{}
	jobsRoot := filepath.Join(d.root, "jobs")
	err := filepath.WalkDir(jobsRoot, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			return nil
		}
		rel, rerr := filepath.Rel(d.root, path)
		if rerr != nil {
			rel = path
		}
		hash, ok := strings.CutSuffix(de.Name(), ".json")
		if !ok || hash == "" {
			rep.Issues = append(rep.Issues, Issue{Path: rel, Err: "stray file (not a <hash>.json entry)"})
			return nil
		}
		rep.Jobs++
		if want := d.jobPath(hash); path != want {
			rep.Issues = append(rep.Issues, Issue{Path: rel,
				Err: fmt.Sprintf("misfiled entry: expected %s", filepath.Join("jobs", filepath.Base(filepath.Dir(want)), hash+".json"))})
			return nil
		}
		if _, ok, err := d.Get(hash); err != nil {
			rep.Issues = append(rep.Issues, Issue{Path: rel, Err: err.Error()})
		} else if !ok {
			// Get only misses on ErrNotExist; the walk just saw the file,
			// so a miss means it vanished mid-audit.
			rep.Issues = append(rep.Issues, Issue{Path: rel, Err: "entry disappeared during verification"})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	ents, err := os.ReadDir(filepath.Join(d.root, "plans"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range ents {
		rel := filepath.Join("plans", e.Name())
		if e.IsDir() {
			rep.Issues = append(rep.Issues, Issue{Path: rel, Err: "stray directory under plans/"})
			continue
		}
		h, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || h == "" {
			rep.Issues = append(rep.Issues, Issue{Path: rel, Err: "stray file (not a <hash>.json manifest)"})
			continue
		}
		rep.Plans++
		if _, err := d.readManifest(h); err != nil {
			rep.Issues = append(rep.Issues, Issue{Path: rel, Err: err.Error()})
		}
	}
	return rep, nil
}
