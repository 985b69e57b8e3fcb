package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The quarantine half of self-healing. A store entry that fails
// verification is evidence — of a bad disk, a truncated copy, a buggy
// writer — so it is moved aside rather than deleted: the entry file goes
// to quarantine/<hash>.json and a quarantine/<hash>.reason file records
// why. The row itself is reproducible (it is a deterministic function of
// its job), so the Session that hit the corruption re-simulates the job
// and records a fresh row, healing the store in place. `rrbus-store gc`
// lists the quarantined debris and can drop entries whose hash has a
// healthy row again.

// Quarantiner is optionally implemented by stores that can set a damaged
// entry aside instead of serving it. Session uses it to self-heal: a
// CorruptError from Get quarantines the entry, and the job re-simulates
// as a plain store miss.
type Quarantiner interface {
	// Quarantine moves the entry recorded under jobHash out of service,
	// keeping the damaged bytes (and the reason) for forensics. It is
	// idempotent: quarantining an absent entry is not an error.
	Quarantine(jobHash, reason string) error
}

// Quarantine implements Quarantiner: the entry file moves to
// quarantine/<hash>.json and the reason is recorded next to it.
func (d *Dir) Quarantine(jobHash, reason string) error {
	if err := checkHash(jobHash); err != nil {
		return err
	}
	return d.quarantineFile(d.jobPath(jobHash), jobHash, reason)
}

// quarantineFile moves an arbitrary entry file (usually the canonical
// jobs/<hh>/<hash>.json path, but repair also quarantines misfiled
// entries at their actual location) into quarantine/ under its hash.
func (d *Dir) quarantineFile(path, jobHash, reason string) error {
	qdir := filepath.Join(d.root, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return Transient(err)
	}
	dst := filepath.Join(qdir, jobHash+".json")
	if err := os.Rename(path, dst); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return Transient(err)
	}
	return d.writeAtomic(filepath.Join(qdir, jobHash+".reason"), []byte(reason+"\n"))
}

// QuarantineInfo describes one quarantined entry for gc listings.
type QuarantineInfo struct {
	Hash   string `json:"hash"`
	Reason string `json:"reason,omitempty"`
	// Healed reports whether the store holds a healthy row for this hash
	// again (a Session or repair re-simulated it), which makes the
	// quarantined file pure debris — safe for gc to drop.
	Healed bool `json:"healed"`
}

// Quarantined lists the quarantine directory in lexical hash order. An
// absent directory is an empty (healthy) quarantine.
func (d *Dir) Quarantined() ([]QuarantineInfo, error) {
	ents, err := os.ReadDir(filepath.Join(d.root, "quarantine"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var infos []QuarantineInfo
	for _, e := range ents {
		hash, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || hash == "" {
			continue
		}
		info := QuarantineInfo{Hash: hash}
		if b, err := os.ReadFile(filepath.Join(d.root, "quarantine", hash+".reason")); err == nil {
			info.Reason = strings.TrimSpace(string(b))
		}
		if _, err := os.Stat(d.jobPath(hash)); err == nil {
			info.Healed = true
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Hash < infos[j].Hash })
	return infos, nil
}

// RemoveQuarantined drops one quarantined entry (and its reason file).
// Removing an absent entry is not an error, mirroring Quarantine's
// idempotence.
func (d *Dir) RemoveQuarantined(jobHash string) error {
	if err := checkHash(jobHash); err != nil {
		return err
	}
	for _, name := range []string{jobHash + ".json", jobHash + ".reason"} {
		if err := os.Remove(filepath.Join(d.root, "quarantine", name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// Quarantine implements Quarantiner for the in-memory store: the row is
// dropped and the reason retained (QuarantinedRows), mirroring Dir
// closely enough for fault-injection tests to exercise the same healing
// path a directory store takes.
func (m *Mem) Quarantine(jobHash, reason string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.rows, jobHash)
	if m.quarantined == nil {
		m.quarantined = map[string]string{}
	}
	m.quarantined[jobHash] = reason
	return nil
}

// QuarantinedRows returns a copy of the hash→reason quarantine record.
func (m *Mem) QuarantinedRows() map[string]string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]string, len(m.quarantined))
	for h, r := range m.quarantined {
		out[h] = r
	}
	return out
}
