package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ResultSchema is the current version of the Result JSONL row format.
// Rows written by this build carry it in their "schema" field; readers
// accept any row whose schema is at most ResultSchema (absence, i.e. 0,
// marks pre-versioned archives, which are forward-compatible by
// construction: fields have only ever been added). A row with a higher
// schema comes from a newer build whose semantics this one cannot know,
// so readers and the store reject it instead of silently mis-rendering.
const ResultSchema = 1

// CheckResultSchema validates that every decoded row is readable by this
// build (see ResultSchema).
func CheckResultSchema(rs []Result) error {
	for i, r := range rs {
		if r.Schema > ResultSchema {
			return fmt.Errorf("scenario: results row %d has schema %d but this build reads <= %d — archive written by a newer version?",
				i, r.Schema, ResultSchema)
		}
	}
	return nil
}

// Hash is the job's content address: a sha256 over the canonical JSON of
// everything that determines its measurement — the canonicalized
// scenario and the isolation pairing — and nothing that merely labels it
// (the job ID). Jobs from different plans that measure the same thing
// therefore share a hash, which is what lets a derivation sweep reuse
// the rows a figure sweep recorded. The current ResultSchema is part of
// the hashed preamble, so a schema bump retires every old address at
// once.
//
// The preamble and the canonical JSON (see appendCanonical) are appended
// into a stack buffer and hashed in one call, so a job whose JSON fits
// the buffer and whose strings need no escape hashes with one
// allocation, the returned string.
func (j Job) Hash() string {
	var buf [512]byte
	b := append(buf[:0], "rrbus job schema="...)
	b = strconv.AppendInt(b, ResultSchema, 10)
	b = append(b, '\n')
	sum := sha256.Sum256(j.appendCanonical(b))
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// appendCanonical appends the canonical JSON of the job: the bytes
// json.Marshal writes for
//
//	struct {
//		Scenario  Scenario `json:"scenario"`
//		Isolation bool     `json:"isolation,omitempty"`
//	}
//
// holding the job's scenario with build-time defaults made explicit and
// pure labeling removed, so equivalent scenarios hash equal:
//
//   - Name is left out: it labels the run and never reaches a Result row.
//   - Workload.Seed 0 becomes 1 (build substitutes 1).
//   - Protocol zeros become the sim defaults (warmup 2, 10 iters).
//   - Contender specs are trimmed and "" becomes "idle" (Build treats
//     both as the idle core at that position).
//
// The contender *count* is preserved even for trailing idles: sim.Run
// validates len(Contenders) <= cores-1 before placement, so a list
// padded with idles past that bound is a build error, not an equivalent
// spelling — dropping the tail would give an invalid scenario the hash
// of a valid one, and a warm store would then serve a run that a cold
// run rejects.
//
// Platform fields are NOT normalized: overrides change the materialized
// Config.Name (e.g. "ref"+"rr" builds "ngmp-ref-rr", not "ngmp-ref"),
// which Result rows echo, so spelling a default explicitly is a
// different — byte-observable — measurement.
//
// Members follow the field order and omitempty rules of the struct
// tags, numbers are written as strconv writes them, and strings go
// through appendString. The test file keeps the json.Marshal form as
// the reference the encoding is checked against.
func (j Job) appendCanonical(b []byte) []byte {
	p, w, pr := &j.Scenario.Platform, &j.Scenario.Workload, &j.Scenario.Protocol
	b = append(b, `{"scenario":{"platform":{`...)
	if p.Arch != "" {
		b = appendString(appendKey(b, "arch"), p.Arch)
	}
	b = appendInt(b, "cores", p.Cores)
	b = appendInt(b, "transfer", p.Transfer)
	b = appendInt(b, "l2hit", p.L2Hit)
	b = appendInt(b, "nop_latency", p.NopLatency)
	b = appendInt(b, "store_buffer", p.StoreBuffer)
	if p.Arbiter != "" {
		b = appendString(appendKey(b, "arbiter"), p.Arbiter)
	}
	b = appendInt(b, "tdma_slot", p.TDMASlot)
	if p.LotterySeed != 0 {
		b = strconv.AppendUint(appendKey(b, "lottery_seed"), p.LotterySeed, 10)
	}
	if len(p.WRRWeights) > 0 {
		b = append(appendKey(b, "wrr_weights"), '[')
		for i, wt := range p.WRRWeights {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(wt), 10)
		}
		b = append(b, ']')
	}
	b = appendString(append(b, `},"workload":{"scua":`...), w.Scua)
	b = appendInt(b, "scua_core", w.ScuaCore)
	if len(w.Contenders) > 0 {
		b = append(appendKey(b, "contenders"), '[')
		for i, c := range w.Contenders {
			if i > 0 {
				b = append(b, ',')
			}
			if c = strings.TrimSpace(c); c == "" {
				c = IdleSpec
			}
			b = appendString(b, c)
		}
		b = append(b, ']')
	}
	seed := w.Seed
	if seed == 0 {
		seed = 1
	}
	b = strconv.AppendUint(append(b, `,"seed":`...), seed, 10)
	b = appendInt(b, "unroll", w.Unroll)
	warmup, iters := pr.Warmup, pr.Iters
	if warmup == 0 {
		warmup = 2
	}
	if iters == 0 {
		iters = 10
	}
	b = strconv.AppendUint(append(b, `},"protocol":{"warmup":`...), warmup, 10)
	b = strconv.AppendUint(append(b, `,"iters":`...), iters, 10)
	if pr.Gammas {
		b = append(b, `,"gammas":true`...)
	}
	b = appendInt(b, "trace", pr.Trace)
	b = append(b, "}}"...)
	if j.Isolation {
		b = append(b, `,"isolation":true`...)
	}
	return append(b, '}')
}

// appendKey appends an object member's key, after a comma unless the
// member is the object's first (b ends with its opening brace: no value
// ends with one).
func appendKey(b []byte, key string) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, key...)
	return append(b, '"', ':')
}

// appendInt appends the member key:n of an omitempty int, and nothing
// for 0.
func appendInt(b []byte, key string, n int) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendInt(appendKey(b, key), int64(n), 10)
}

// appendString appends s as json.Marshal quotes it. Printable ASCII that
// needs no escape is quoted as is; any other string is encoded by
// encoding/json itself, so its escapes (HTML-safe <, > and &, control
// bytes, U+2028 and U+2029, invalid UTF-8 replaced) stay its own.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Compiled is a plan resolved to its canonical, content-addressed form:
// the concrete job list plus the per-job and whole-plan hashes. It is
// the unit the pipeline's later stages consume — a Session runs it, a
// Store keys recorded rows by its job hashes, Render checks results
// against its job list.
type Compiled struct {
	// Spec is the plan this was compiled from.
	Spec *Plan
	// Jobs is the expanded job list, in job-index order.
	Jobs []Job

	jobHashes []string
	hash      string
}

// Compile expands a plan into its job list and content-addresses it.
// Expansion is pure and deterministic, so compiling the same plan on any
// machine yields the same jobs and the same hashes.
func Compile(spec *Plan) (*Compiled, error) {
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	hashes := make([]string, len(jobs))
	h := sha256.New()
	fmt.Fprintf(h, "rrbus plan schema=%d jobs=%d\n", ResultSchema, len(jobs))
	for i := range jobs {
		hashes[i] = jobs[i].Hash()
		io.WriteString(h, hashes[i])
		h.Write([]byte{'\n'})
	}
	return &Compiled{
		Spec:      spec,
		Jobs:      jobs,
		jobHashes: hashes,
		hash:      hex.EncodeToString(h.Sum(nil)),
	}, nil
}

// CompileGenerator compiles a one-off plan invoking a registered
// generator — the programmatic twin of a {"generator": ..., "params":
// ...} scenario file.
func CompileGenerator(generator string, params Params) (*Compiled, error) {
	return Compile(&Plan{Generator: generator, Params: params})
}

// LoadCompiled loads and compiles a scenario file.
func LoadCompiled(path string) (*Compiled, error) {
	spec, err := Load(path)
	if err != nil {
		return nil, err
	}
	return Compile(spec)
}

// Hash is the plan's content address: a sha256 over the ordered job
// hashes. Plans that expand to the same measurements share it regardless
// of how they were spelled (generator vs explicit job list, plan name).
func (c *Compiled) Hash() string { return c.hash }

// JobHashes returns the per-job content addresses, index-aligned with
// Jobs. The slice is owned by the Compiled; do not mutate it.
func (c *Compiled) JobHashes() []string { return c.jobHashes }

// Generator names the plan's generator ("" for explicit job lists).
func (c *Compiled) Generator() string { return c.Spec.Generator }

// Name returns the plan's display name: the spec's name, else its
// generator, else "plan".
func (c *Compiled) Name() string {
	if c.Spec.Name != "" {
		return c.Spec.Name
	}
	if c.Spec.Generator != "" {
		return c.Spec.Generator
	}
	return "plan"
}
