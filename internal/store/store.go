// Package store is the content-addressed results store of the
// Plan→Run→Store→Render pipeline: recorded scenario.Result rows keyed by
// the content hash of the job that measured them (scenario.Job.Hash),
// plus per-plan manifests keyed by the plan hash.
//
// The store is what turns measurements from a transient byproduct into
// the asset the methodology is built around ("measure once, derive
// bounds with confidence"): a Session consults it before simulating, so
// a repeated sweep — or a different plan whose jobs overlap a previous
// one, like a derivation sweep over a k range a figure already measured —
// simulates only the delta while rendering byte-identical output.
//
// Two implementations ship: Mem (per-process, for pipelines and tests)
// and Dir (a directory of integrity-checked entry files, shareable
// across runs and machines). Both are content-addressed: a stored row's
// ID is cleared on Put — labeling belongs to the plan replaying the row,
// not to the measurement — and callers relabel on Get.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rrbus/internal/scenario"
)

// Store holds recorded measurement rows keyed by job content hash.
type Store interface {
	// Get returns the row recorded under a job hash. A missing entry is
	// (zero, false, nil); a present-but-unreadable entry (corruption,
	// incompatible schema) is an error — serving a damaged row as a miss
	// would silently re-simulate, and serving it as a hit would derive a
	// wrong bound.
	Get(jobHash string) (scenario.Result, bool, error)
	// Put records a row under a job hash, clearing its ID first (the
	// store is content-addressed; see the package comment). Recording
	// the same hash again overwrites — rows are deterministic functions
	// of the job, so any honest writer stores the same bytes.
	Put(jobHash string, r scenario.Result) error
}

// PlanRecorder is optionally implemented by stores that additionally
// index plans: a manifest per plan hash, recording which job hashes the
// plan expands to. Sessions record every plan they run, so a store
// doubles as an audit log of the sweeps that filled it.
type PlanRecorder interface {
	PutPlan(c *scenario.Compiled) error
}

// normalize strips the labeling and pins the schema of a row about to be
// stored.
func normalize(r scenario.Result) scenario.Result {
	r.ID = ""
	if r.Schema == 0 {
		r.Schema = scenario.ResultSchema
	}
	return r
}

// NormalizeRow returns the content-addressed form of a row: ID cleared,
// schema pinned — exactly what Put records. The distribution layer
// marshals this form on the wire so the checksum a worker computes is the
// checksum the coordinator's store verifies.
func NormalizeRow(r scenario.Result) scenario.Result { return normalize(r) }

// SumRow is the integrity checksum the store records alongside a row:
// sha256 over the job hash and the row's canonical JSON bytes. Exported
// for the distribution layer, which sends rows over the wire with the
// same checksum so ingest can verify them before recording.
func SumRow(jobHash string, row []byte) string { return sumOf(jobHash, row) }

// Mem is an in-process Store: a map guarded by a mutex. The zero value
// is not usable; call NewMem.
type Mem struct {
	mu          sync.RWMutex
	rows        map[string]scenario.Result
	quarantined map[string]string
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{rows: map[string]scenario.Result{}} }

// Get implements Store.
func (m *Mem) Get(jobHash string) (scenario.Result, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	r, ok := m.rows[jobHash]
	return r, ok, nil
}

// Put implements Store. The row's slices (histograms, trace) are stored
// by reference; callers must not mutate them after Put.
func (m *Mem) Put(jobHash string, r scenario.Result) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rows[jobHash] = normalize(r)
	return nil
}

// Len reports the number of stored rows.
func (m *Mem) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.rows)
}

// JobHashes lists the stored row hashes in lexical order — the store's
// side of a push/pull delta diff.
func (m *Mem) JobHashes() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.rows))
	for h := range m.rows {
		out = append(out, h)
	}
	sort.Strings(out)
	return out, nil
}

// entry is the on-disk envelope of one stored row: the row bytes plus
// enough redundancy to verify them on read. Sum covers the job hash and
// the row bytes together, so a bit flip anywhere — the row, the sum, the
// hash, or an entry filed under the wrong name — fails verification.
type entry struct {
	Schema int             `json:"schema"`
	Hash   string          `json:"hash"`
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

// planManifest is the on-disk record of one plan: its identity, the job
// hashes it expands to in job order, and — since the resilience layer —
// the declarative spec it was compiled from, so `rrbus-store repair` can
// recompile the plan and re-simulate any job whose row was quarantined
// or lost. Manifests written before the spec was recorded stay readable
// (Spec is simply nil) but their missing rows are not re-derivable.
type planManifest struct {
	Schema    int            `json:"schema"`
	Name      string         `json:"name,omitempty"`
	Generator string         `json:"generator,omitempty"`
	Hash      string         `json:"hash"`
	Jobs      []string       `json:"jobs"`
	Spec      *scenario.Plan `json:"spec,omitempty"`
}

// sumOf is the integrity checksum of a stored row: sha256 over the job
// hash and the row's canonical bytes.
func sumOf(jobHash string, row []byte) string {
	sum := rowSum([]byte(jobHash), row)
	return string(sum[:])
}

// rowSum is sumOf over the job hash's bytes, hex-encoded into an array —
// the form Get compares against a stored sum without allocating.
func rowSum(jobHash, row []byte) (sum [2 * sha256.Size]byte) {
	h := sha256.New()
	h.Write(jobHash)
	h.Write([]byte{'\n'})
	h.Write(row)
	var raw [sha256.Size]byte
	hex.Encode(sum[:], h.Sum(raw[:0]))
	return sum
}

// Dir is a directory-backed Store:
//
//	<root>/jobs/<hh>/<hash>.json     one integrity-checked entry per row
//	<root>/plans/<hash>.json         one manifest per recorded plan
//	<root>/quarantine/<hash>.json    entries set aside by self-healing
//	<root>/quarantine/<hash>.reason  why each was quarantined
//
// Entries are written atomically (temp file + rename), so concurrent
// sessions — even separate processes sharding one sweep — can share a
// root; at worst two writers race to create the identical entry. A plan
// manifest is written only when its bytes change, so a warm re-run of a
// recorded plan reads the store and writes nothing.
//
// Every entry is one line in one framing, the bytes marshalEntry writes:
//
//	{"schema":N,"hash":"H","sum":"S","result":ROW}
//
// Get reads that framing only; an entry in any other shape is corrupt.
// ROW is the json.Marshal of the row, which Get decodes with
// scenario.DecodeResult in one pass, without reflection.
// Job and plan hashes become file names, so every method that turns one
// into a path refuses anything but 64 lowercase hex digits — the only
// hashes scenario computes — and no name can reach outside the root.
type Dir struct {
	root string
}

// staleTmpAge is how old a leftover writeAtomic temp file must be before
// OpenDir sweeps it. A crash mid-write strands a `.tmp-*` file forever;
// a live concurrent writer's temp file exists for milliseconds. The age
// gate separates the two, so opening a store shared with an active
// session never yanks a file out from under its rename.
const staleTmpAge = 10 * time.Minute

// OpenDir opens (creating if needed) a directory store rooted at root,
// sweeping any stale temp files a crashed writer left behind (see
// staleTmpAge) so `verify` stays clean after an unclean shutdown.
func OpenDir(root string) (*Dir, error) {
	for _, sub := range []string{"jobs", "plans"} {
		if err := os.MkdirAll(filepath.Join(root, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	d := &Dir{root: root}
	if err := d.sweepStaleTmp(); err != nil {
		return nil, err
	}
	return d, nil
}

// sweepStaleTmp removes `.tmp-*` files older than staleTmpAge anywhere
// under the store root — the debris of a writeAtomic interrupted between
// CreateTemp and Rename.
func (d *Dir) sweepStaleTmp() error {
	cutoff := time.Now().Add(-staleTmpAge)
	return filepath.WalkDir(d.root, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			// A directory vanishing mid-walk (concurrent gc) is not worth
			// failing an open over.
			return nil
		}
		if de.IsDir() || !strings.HasPrefix(de.Name(), ".tmp-") {
			return nil
		}
		info, err := de.Info()
		if err != nil || info.ModTime().After(cutoff) {
			return nil
		}
		// Best-effort: a racing sweep may have removed it first.
		os.Remove(path)
		return nil
	})
}

// Root returns the store's directory.
func (d *Dir) Root() string { return d.root }

func (d *Dir) jobPath(jobHash string) string {
	prefix := jobHash
	if len(prefix) > 2 {
		prefix = prefix[:2]
	}
	return filepath.Join(d.root, "jobs", prefix, jobHash+".json")
}

// checkHash refuses a job or plan hash that is not 64 lowercase hex
// digits before it becomes a file name. The error is neither transient
// nor corrupt: nothing stored is at fault, and retrying cannot help.
func checkHash(hash string) error {
	if len(hash) == 2*sha256.Size && strings.Trim(hash, "0123456789abcdef") == "" {
		return nil
	}
	return fmt.Errorf("store: %q is not a content hash (64 lowercase hex digits)", hash)
}

// Get implements Store, verifying the entry's integrity before trusting
// it: the entry must be in the store's framing (see Dir), carry a
// readable schema, be filed under its own hash, and its checksum must
// match the stored row bytes, which scenario.DecodeResult decodes once.
// Verification failures are CorruptErrors (quarantinable,
// re-derivable); I/O failures are TransientErrors (retryable);
// schema-from-the-future is neither — see the taxonomy in errors.go.
func (d *Dir) Get(jobHash string) (scenario.Result, bool, error) {
	var zero scenario.Result
	if err := checkHash(jobHash); err != nil {
		return zero, false, err
	}
	buf, err := readEntry(d.jobPath(jobHash))
	if errors.Is(err, fs.ErrNotExist) {
		return zero, false, nil
	}
	if err != nil {
		return zero, false, Transient(err)
	}
	r, err := decodeEntry(jobHash, *buf)
	releaseEntry(buf)
	if err != nil {
		return zero, false, err
	}
	return r, true, nil
}

// entryBufs pools the buffers Get reads entries into. Entries are a few
// hundred bytes; a buffer that a trace-window row grew past
// maxPooledEntry is dropped rather than kept.
var entryBufs = sync.Pool{New: func() any {
	buf := make([]byte, 0, 1<<10)
	return &buf
}}

const maxPooledEntry = 16 << 10

// readEntry reads the file at path into a pooled buffer, through one
// open file, until EOF. The caller hands the buffer back with
// releaseEntry once nothing it keeps aliases the bytes.
func readEntry(path string) (*[]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := entryBufs.Get().(*[]byte)
	b := (*buf)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := f.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*buf = b
			if err == io.EOF {
				return buf, nil
			}
			releaseEntry(buf)
			return nil, err
		}
	}
}

// releaseEntry returns a buffer readEntry filled to the pool.
func releaseEntry(buf *[]byte) {
	if cap(*buf) <= maxPooledEntry {
		*buf = (*buf)[:0]
		entryBufs.Put(buf)
	}
}

// decodeEntry verifies and decodes the bytes of the entry filed under
// jobHash, with the checks and error classes Get documents. Nothing it
// returns aliases data.
func decodeEntry(jobHash string, data []byte) (scenario.Result, error) {
	var zero scenario.Result
	f, ok := cutEntry(data)
	if !ok {
		return zero, &CorruptError{Hash: jobHash, Reason: "entry is not in the framing Put writes"}
	}
	if f.schema > scenario.ResultSchema {
		// A newer build's entry need not pass this build's checks, but it
		// must be the JSON its framing says it is.
		if !json.Valid(data) || !json.Valid(f.row) {
			return zero, &CorruptError{Hash: jobHash, Reason: "entry does not parse"}
		}
		return zero, fmt.Errorf("store: %s: entry schema %d but this build reads <= %d — store written by a newer version?",
			jobHash, f.schema, scenario.ResultSchema)
	}
	if string(f.hash) != jobHash {
		return zero, &CorruptError{Hash: jobHash, Reason: fmt.Sprintf("entry claims hash %s", f.hash)}
	}
	if got := rowSum(f.hash, f.row); !bytes.Equal(got[:], f.sum) {
		return zero, &CorruptError{Hash: jobHash,
			Reason: fmt.Sprintf("checksum mismatch (stored %s, computed %s) — corrupted entry", f.sum, got[:])}
	}
	r, err := scenario.DecodeResult(f.row)
	if err != nil {
		return zero, &CorruptError{Hash: jobHash, Reason: fmt.Sprintf("row does not parse: %v", err)}
	}
	if r.Schema > scenario.ResultSchema {
		return zero, fmt.Errorf("store: %s: row schema %d but this build reads <= %d", jobHash, r.Schema, scenario.ResultSchema)
	}
	return r, nil
}

// frame is an entry cut at the seams of its framing; hash, sum and row
// alias the entry's bytes.
type frame struct {
	schema         int
	hash, sum, row []byte
}

// cutEntry cuts an entry in the framing marshalEntry writes,
//
//	{"schema":N,"hash":"H","sum":"S","result":ROW}\n
//
// into its fields, in place, and reports false for any other shape. N
// is read as a JSON decoder reads an int, and ROW — everything up to the
// closing brace and newline — must neither start nor end with white
// space, so that where ROW holds one JSON value, a JSON decoder of the
// entry reads exactly these four fields.
func cutEntry(data []byte) (f frame, ok bool) {
	rest, ok := bytes.CutPrefix(data, []byte(`{"schema":`))
	if !ok {
		return f, false
	}
	if f.schema, rest, ok = cutInt(rest); !ok {
		return f, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"hash":"`)); !ok {
		return f, false
	}
	if f.hash, rest, ok = bytes.Cut(rest, []byte(`","sum":"`)); !ok {
		return f, false
	}
	if f.sum, rest, ok = bytes.Cut(rest, []byte(`","result":`)); !ok {
		return f, false
	}
	if f.row, ok = bytes.CutSuffix(rest, []byte("}\n")); !ok || len(f.row) == 0 {
		return f, false
	}
	if isSpace(f.row[0]) || isSpace(f.row[len(f.row)-1]) {
		return f, false
	}
	return f, true
}

// cutInt cuts a JSON integer that fits an int off the front of b: an
// optional minus sign, then 0 or digits without a leading zero.
func cutInt(b []byte) (n int, rest []byte, ok bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	digits := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == digits || b[digits] == '0' && i > digits+1 {
		return 0, b, false
	}
	n, err := strconv.Atoi(string(b[:i]))
	if err != nil {
		return 0, b, false
	}
	return n, b[i:], true
}

// isSpace reports whether c is JSON white space.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// Put implements Store.
func (d *Dir) Put(jobHash string, r scenario.Result) error {
	if err := checkHash(jobHash); err != nil {
		return err
	}
	data, err := marshalEntry(jobHash, r)
	if err != nil {
		return err
	}
	return d.writeAtomic(d.jobPath(jobHash), data)
}

// marshalEntry builds the exact on-disk entry bytes Put writes for a row
// (envelope, checksum, trailing newline).
func marshalEntry(jobHash string, r scenario.Result) ([]byte, error) {
	row, err := json.Marshal(normalize(r))
	if err != nil {
		return nil, fmt.Errorf("store: marshal row %s: %w", jobHash, err)
	}
	e := entry{
		Schema: scenario.ResultSchema,
		Hash:   jobHash,
		Sum:    sumOf(jobHash, row),
		Result: row,
	}
	data, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("store: marshal entry %s: %w", jobHash, err)
	}
	return append(data, '\n'), nil
}

// PutPlan implements PlanRecorder. The manifest records the plan's
// declarative spec alongside its job hashes, which is what lets repair
// re-simulate a quarantined or missing row from the plans that
// reference it.
//
// The manifest is written only when its bytes change: a file already
// holding exactly these bytes is left in place. The comparison is of
// bytes, not of existence, because the plan hash covers only the job
// hashes — a second name or spelling of the same plan still rewrites the
// manifest (the last writer wins), and a damaged or deleted manifest is
// healed by the next run. Any read failure falls through to the write.
func (d *Dir) PutPlan(c *scenario.Compiled) error {
	m := planManifest{
		Schema:    scenario.ResultSchema,
		Name:      c.Name(),
		Generator: c.Generator(),
		Hash:      c.Hash(),
		Jobs:      c.JobHashes(),
		Spec:      c.Spec,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: marshal plan %s: %w", c.Hash(), err)
	}
	data = append(data, '\n')
	path := filepath.Join(d.root, "plans", c.Hash()+".json")
	if old, err := os.ReadFile(path); err == nil && bytes.Equal(old, data) {
		return nil
	}
	return d.writeAtomic(path, data)
}

// Plans lists the plan hashes recorded in the store, in lexical order.
func (d *Dir) Plans() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(d.root, "plans"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []string
	for _, e := range ents {
		if name, ok := strings.CutSuffix(e.Name(), ".json"); ok && name != "" {
			out = append(out, name)
		}
	}
	return out, nil
}

// Len reports the number of stored rows (a directory walk; diagnostics
// and tests, not hot paths).
func (d *Dir) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(filepath.Join(d.root, "jobs"), func(_ string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !de.IsDir() {
			n++
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return n, nil
}

// JobHashes lists every stored row hash in lexical order (a directory
// walk) — the store's side of a push/pull delta diff and the scan gc and
// compact iterate. A file whose name is not a content hash holds no row
// and is left to Verify to report.
func (d *Dir) JobHashes() ([]string, error) {
	var out []string
	err := filepath.WalkDir(filepath.Join(d.root, "jobs"), func(_ string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			return nil
		}
		if h, ok := strings.CutSuffix(de.Name(), ".json"); ok && checkHash(h) == nil {
			out = append(out, h)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(out)
	return out, nil
}

// RemoveJob drops one stored row entry. Removing an absent entry is not
// an error (gc races with concurrent writers by design — at worst two
// collectors race to remove the same file).
func (d *Dir) RemoveJob(jobHash string) error {
	if err := checkHash(jobHash); err != nil {
		return err
	}
	if err := os.Remove(d.jobPath(jobHash)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// writeAtomic writes data to path via a temp file in the same directory
// plus a rename, so readers never observe a half-written entry. Failures
// are TransientErrors: nothing recorded is damaged (the rename either
// happened or it did not), so the write is safely retryable.
func (d *Dir) writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Transient(err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return Transient(err)
	}
	// CreateTemp creates 0600; the store is documented as shareable
	// across users and processes, so widen to the usual 0644 (the
	// process umask still applies at the OS level for stricter setups).
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return Transient(err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return Transient(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return Transient(err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return Transient(err)
	}
	return nil
}
