package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"rrbus/internal/sim"
	"rrbus/internal/workload"
)

// Params are generator knobs: a JSON object with typed getters that fall
// back to generator defaults for absent keys, so scenario files only spell
// the knobs they change. The getters also accept natively typed Go values
// (int, uint64, []int, []string), so in-process callers — the CLIs
// parameterizing a generator programmatically — use the same expansion
// path as scenario files. Plan.Expand first checks every key and value
// against the generator's declared Params, so a misspelled key or a value
// of the wrong kind is an error, not a silent default.
type Params map[string]any

// ParamKind is the kind of value a generator parameter takes.
type ParamKind uint8

const (
	// ParamInt is an integer: a JSON number without a fraction, or a Go
	// int, int64 or uint64.
	ParamInt ParamKind = iota + 1
	// ParamUint is a non-negative ParamInt (seeds, iteration counts).
	ParamUint
	// ParamString is a string.
	ParamString
	// ParamStrings is a list of strings.
	ParamStrings
	// ParamInts is a list of integers.
	ParamInts
)

// String names the kind in errors.
func (k ParamKind) String() string {
	switch k {
	case ParamInt:
		return "an integer"
	case ParamUint:
		return "a non-negative integer"
	case ParamString:
		return "a string"
	case ParamStrings:
		return "a list of strings"
	case ParamInts:
		return "a list of integers"
	}
	return fmt.Sprintf("ParamKind(%d)", uint8(k))
}

// intParam reports whether v is an integer in one of the forms Params.Int
// reads, and whether it is negative.
func intParam(v any) (ok, negative bool) {
	switch n := v.(type) {
	case float64:
		return n == math.Trunc(n) && math.Abs(n) < 1<<63, n < 0
	case int:
		return true, n < 0
	case int64:
		return true, n < 0
	case uint64:
		return true, false
	case json.Number:
		i, err := n.Int64()
		return err == nil, i < 0
	}
	return false, false
}

// accepts reports whether v is a value of kind k.
func (k ParamKind) accepts(v any) bool {
	switch k {
	case ParamInt, ParamUint:
		ok, negative := intParam(v)
		return ok && !(k == ParamUint && negative)
	case ParamString:
		_, ok := v.(string)
		return ok
	case ParamStrings:
		if _, ok := v.([]string); ok {
			return true
		}
		list, ok := v.([]any)
		for _, e := range list {
			if _, isString := e.(string); !isString {
				return false
			}
		}
		return ok
	case ParamInts:
		if _, ok := v.([]int); ok {
			return true
		}
		// Params.Ints reads the JSON numbers of a decoded list only.
		list, ok := v.([]any)
		for _, e := range list {
			_, isNumber := e.(float64)
			if isInt, _ := intParam(e); !isNumber || !isInt {
				return false
			}
		}
		return ok
	}
	return false
}

// checkParams rejects a key g does not declare, naming g's keys, and a
// value of the wrong kind, naming its key. Keys are checked in sorted
// order, so the error is the same on every run.
func (g Generator) checkParams(p Params) error {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		kind, ok := g.Params[k]
		if !ok {
			valid := make([]string, 0, len(g.Params))
			for v := range g.Params {
				valid = append(valid, v)
			}
			sort.Strings(valid)
			return fmt.Errorf("unknown param %q (valid: %s)", k, strings.Join(valid, ", "))
		}
		if !kind.accepts(p[k]) {
			return fmt.Errorf("param %q must be %s, not %#v", k, kind, p[k])
		}
	}
	return nil
}

// Int reads an integer parameter (JSON numbers arrive as float64).
func (p Params) Int(key string, def int) int {
	v, ok := p[key]
	if !ok {
		return def
	}
	switch n := v.(type) {
	case float64:
		return int(n)
	case int:
		return n
	case int64:
		return int(n)
	case uint64:
		return int(n)
	case json.Number:
		i, _ := n.Int64()
		return int(i)
	}
	return def
}

// Uint64 reads an unsigned parameter. Native uint64 values pass through
// unclamped (seeds may exceed 2^63); other numeric forms fall back to
// the default when negative.
func (p Params) Uint64(key string, def uint64) uint64 {
	if n, ok := p[key].(uint64); ok {
		return n
	}
	if n := p.Int(key, -1); n >= 0 {
		return uint64(n)
	}
	return def
}

// String reads a string parameter.
func (p Params) String(key, def string) string {
	if s, ok := p[key].(string); ok {
		return s
	}
	return def
}

// Strings reads a string-list parameter.
func (p Params) Strings(key string, def []string) []string {
	if ss, ok := p[key].([]string); ok && len(ss) > 0 {
		return ss
	}
	v, ok := p[key].([]any)
	if !ok {
		return def
	}
	out := make([]string, 0, len(v))
	for _, e := range v {
		if s, ok := e.(string); ok {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return def
	}
	return out
}

// Ints reads an integer-list parameter.
func (p Params) Ints(key string, def []int) []int {
	if is, ok := p[key].([]int); ok && len(is) > 0 {
		return is
	}
	v, ok := p[key].([]any)
	if !ok {
		return def
	}
	out := make([]int, 0, len(v))
	for _, e := range v {
		if n, ok := e.(float64); ok {
			out = append(out, int(n))
		}
	}
	if len(out) == 0 {
		return def
	}
	return out
}

// Generator expands parameters into a concrete job list. Expansion is
// pure and deterministic: the same params always produce the same jobs in
// the same order, which is what makes shard selection by job index stable
// across machines.
type Generator struct {
	Name string
	// Desc is a one-line description for CLI listings.
	Desc string
	// Params declares every parameter Expand reads and the kind of its
	// value; Plan.Expand rejects any other key and any value of another
	// kind before Expand runs.
	Params map[string]ParamKind
	// Expand produces the job list.
	Expand func(p Params) ([]Job, error)
}

var (
	genMu  sync.RWMutex
	genReg = map[string]Generator{}
)

// Register installs a generator (panics on duplicates: registration is a
// package-init-time act).
func Register(g Generator) {
	genMu.Lock()
	defer genMu.Unlock()
	if g.Name == "" || g.Params == nil || g.Expand == nil {
		panic("scenario: generator needs a name, its params and an Expand func")
	}
	if _, dup := genReg[g.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate generator %q", g.Name))
	}
	genReg[g.Name] = g
}

// Lookup returns the named generator.
func Lookup(name string) (Generator, bool) {
	genMu.RLock()
	defer genMu.RUnlock()
	g, ok := genReg[name]
	return g, ok
}

// Names lists registered generators in sorted order.
func Names() []string {
	genMu.RLock()
	defer genMu.RUnlock()
	out := make([]string, 0, len(genReg))
	for n := range genReg {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// rskContenders returns nc-1 rsk(t) contender specs.
func rskContenders(nc int, t string) []string {
	out := make([]string, nc-1)
	for i := range out {
		out[i] = "rsk:" + t
	}
	return out
}

// coresOf resolves the core count of a named base platform.
func coresOf(arch string) (int, error) {
	cfg, err := sim.ByName(arch)
	if err != nil {
		return 0, err
	}
	return cfg.Cores, nil
}

// sweepJobs expands the Fig. 7-shaped rsk-nop(typ, k) slowdown sweep on
// arch: one isolation-paired job per k, IDs "<prefix>/k=<k>", at the
// derivation's unroll (2, so the loop structure is constant across the
// sweep).
func sweepJobs(prefix, arch, typ string, kmin, kmax int, warmup, iters uint64) ([]Job, error) {
	if typ != "load" && typ != "store" {
		return nil, fmt.Errorf("type %q (want load|store)", typ)
	}
	if kmin < 1 || kmax < kmin {
		return nil, fmt.Errorf("bad k range %d..%d", kmin, kmax)
	}
	nc, err := coresOf(arch)
	if err != nil {
		return nil, err
	}
	jobs := make([]Job, 0, kmax-kmin+1)
	for k := kmin; k <= kmax; k++ {
		jobs = append(jobs, Job{
			ID:        fmt.Sprintf("%s/k=%d", prefix, k),
			Isolation: true,
			Scenario: Scenario{
				Platform: PlatformSpec{Arch: arch},
				Workload: WorkloadSpec{
					Scua:       fmt.Sprintf("rsknop:%s:%d", typ, k),
					Contenders: rskContenders(nc, typ),
					Unroll:     deriveUnroll,
				},
				Protocol: Protocol{Warmup: warmup, Iters: iters},
			},
		})
	}
	return jobs, nil
}

// The derivation protocol. The kernel builder is pinned to a small
// constant unroll factor rather than the default "as large as fits IL1":
// Eq. 3 compares slowdowns across different k, which is only meaningful
// when every rsk-nop in the sweep performs the same loop structure, and
// unroll 2 keeps rsk-nop bodies IL1-resident for every k a derivation
// sweeps (k <= ~400 on NGMP-sized IL1s). Three warmup iterations warm L2
// and lock the synchrony schedule before 20 measured ones.
const deriveUnroll = 2

var deriveProtocol = Protocol{Warmup: 3, Iters: 20}

// deriveBlock expands one self-contained derivation block: the δnop
// calibration job ("<prefix>/dnop") followed by the isolation-paired
// rsk-nop(typ, k) jobs for k = kmin..kmax on the given platform, all at
// the derivation protocol. Renderers that re-derive bounds from recorded
// results (derive, abl-arb, abl-dnop, abl-scaling) need the calibration
// row in-band: δnop is a measured quantity, not a constant.
func deriveBlock(prefix string, platform PlatformSpec, typ string, kmin, kmax int) ([]Job, error) {
	if typ != "load" && typ != "store" {
		return nil, fmt.Errorf("type %q (want load|store)", typ)
	}
	if kmin < 1 || kmax < kmin {
		return nil, fmt.Errorf("bad k range %d..%d", kmin, kmax)
	}
	nc := platform.Cores
	if nc == 0 {
		var err error
		if nc, err = coresOf(platform.Arch); err != nil {
			return nil, err
		}
	}
	// The δnop calibration has no contenders, so its one run IS the
	// isolation run — no Isolation pairing, which would simulate the same
	// kernel twice.
	jobs := make([]Job, 0, kmax-kmin+2)
	jobs = append(jobs, Job{
		ID: prefix + "/dnop",
		Scenario: Scenario{
			Platform: platform,
			Workload: WorkloadSpec{Scua: "nop", Unroll: deriveUnroll},
			Protocol: deriveProtocol,
		},
	})
	for k := kmin; k <= kmax; k++ {
		jobs = append(jobs, Job{
			ID:        fmt.Sprintf("%s/k=%d", prefix, k),
			Isolation: true,
			Scenario: Scenario{
				Platform: platform,
				Workload: WorkloadSpec{
					Scua:       fmt.Sprintf("rsknop:%s:%d", typ, k),
					Contenders: rskContenders(nc, typ),
					Unroll:     deriveUnroll,
				},
				Protocol: deriveProtocol,
			},
		})
	}
	return jobs, nil
}

// contentionPlatform builds the platform a contention measurement runs
// on: the measured core plus at least one contender.
func contentionPlatform(platform PlatformSpec) (sim.Config, error) {
	cfg, err := platform.Build()
	if err == nil && cfg.Cores < 2 {
		err = fmt.Errorf("contention measurements need at least 2 cores, platform %s has %d", cfg.Name, cfg.Cores)
	}
	return cfg, err
}

// DerivePlan is the derive generator's block for any platform spec —
// arbiter, nop latency and the other overrides the generator's params
// cannot spell included — as an explicit plan named
// "derive/<platform>/<typ>/k=<kmin>..<kmax>": the δnop calibration job,
// then the isolation-paired rsk-nop(typ, k) jobs for k = kmin..kmax. Its
// jobs hash like the generator's, so both share stored rows.
func DerivePlan(platform PlatformSpec, typ string, kmin, kmax int) (*Plan, error) {
	cfg, err := contentionPlatform(platform)
	if err != nil {
		return nil, err
	}
	prefix := fmt.Sprintf("derive/%s/%s", cfg.Name, typ)
	jobs, err := deriveBlock(prefix, platform, typ, kmin, kmax)
	if err != nil {
		return nil, err
	}
	return &Plan{Name: fmt.Sprintf("%s/k=%d..%d", prefix, kmin, kmax), Jobs: jobs}, nil
}

// NaivePlan is the pre-paper measurement (§1) as a one-job plan: the
// plain rsk — rsk-nop(typ, 0) — against Nc−1 rsk(typ), paired with its
// isolation run, at the derivation protocol. Its det/nr (core.NaiveFrom)
// converges to γ(δrsk), which underestimates ubd by the injection time.
func NaivePlan(platform PlatformSpec, typ string) (*Plan, error) {
	if typ != "load" && typ != "store" {
		return nil, fmt.Errorf("type %q (want load|store)", typ)
	}
	cfg, err := contentionPlatform(platform)
	if err != nil {
		return nil, err
	}
	id := fmt.Sprintf("naive/%s/%s", cfg.Name, typ)
	return &Plan{Name: id, Jobs: []Job{{
		ID:        id,
		Isolation: true,
		Scenario: Scenario{
			Platform: platform,
			Workload: WorkloadSpec{
				Scua:       fmt.Sprintf("rsknop:%s:0", typ),
				Contenders: rskContenders(cfg.Cores, typ),
				Unroll:     deriveUnroll,
			},
			Protocol: deriveProtocol,
		},
	}}}, nil
}

func init() {
	// fig3: the γ(δ) matrix on the toy platform. δ = 0 is the store
	// buffer's back-to-back drains; δ >= 1 is rsk-nop(load, δ-1) since
	// δ = DL1lat + k with DL1lat = 1 on the toy platform.
	Register(Generator{
		Name:   "fig3",
		Desc:   "γ(δ) matrix on the toy platform (Fig. 3)",
		Params: map[string]ParamKind{"max_delta": ParamInt},
		Expand: func(p Params) ([]Job, error) {
			maxDelta := p.Int("max_delta", 13)
			nc, err := coresOf("toy")
			if err != nil {
				return nil, err
			}
			jobs := make([]Job, 0, maxDelta+1)
			for delta := 0; delta <= maxDelta; delta++ {
				scua := "rsknop:store:0"
				t := "store"
				if delta > 0 {
					scua = fmt.Sprintf("rsknop:load:%d", delta-1)
					t = "load"
				}
				jobs = append(jobs, Job{
					ID: fmt.Sprintf("fig3/delta=%d", delta),
					Scenario: Scenario{
						Platform: PlatformSpec{Arch: "toy"},
						Workload: WorkloadSpec{Scua: scua, Contenders: rskContenders(nc, t)},
						Protocol: Protocol{Warmup: 3, Iters: 10, Gammas: true},
					},
				})
			}
			return jobs, nil
		},
	})

	// fig4: the saw-tooth γ(δ) on a full-scale platform.
	Register(Generator{
		Name:   "fig4",
		Desc:   "saw-tooth γ(δ) on the reference platform (Fig. 4)",
		Params: map[string]ParamKind{"arch": ParamString, "max_delta": ParamInt},
		Expand: func(p Params) ([]Job, error) {
			arch := p.String("arch", "ref")
			cfg, err := sim.ByName(arch)
			if err != nil {
				return nil, err
			}
			maxDelta := p.Int("max_delta", 3*cfg.UBD())
			jobs := make([]Job, 0, maxDelta)
			for delta := cfg.DL1.Latency; delta <= maxDelta; delta++ {
				jobs = append(jobs, Job{
					ID: fmt.Sprintf("fig4/%s/delta=%d", arch, delta),
					Scenario: Scenario{
						Platform: PlatformSpec{Arch: arch},
						Workload: WorkloadSpec{
							Scua:       fmt.Sprintf("rsknop:load:%d", delta-cfg.DL1.Latency),
							Contenders: rskContenders(cfg.Cores, "load"),
						},
						Protocol: Protocol{Warmup: 3, Iters: 10, Gammas: true},
					},
				})
			}
			return jobs, nil
		},
	})

	// fig2: the illustrative Fig. 2 request on the toy platform — one
	// trace-bearing job; the timeline is rendered from the recorded
	// events (δ = 9 suffers γ = 3 < ubd = 6).
	Register(Generator{
		Name:   "fig2",
		Desc:   "Fig. 2 timeline: one δ=9 request vs 3 saturating rsk on the toy platform",
		Params: map[string]ParamKind{"k": ParamInt, "trace": ParamInt},
		Expand: func(p Params) ([]Job, error) {
			cfg, err := sim.ByName("toy")
			if err != nil {
				return nil, err
			}
			// δ = DL1lat + k; the paper's example is δ = 9.
			k := p.Int("k", 9-cfg.DL1.Latency)
			return []Job{{
				ID: fmt.Sprintf("fig2/delta=%d", cfg.DL1.Latency+k),
				Scenario: Scenario{
					Platform: PlatformSpec{Arch: "toy"},
					Workload: WorkloadSpec{
						Scua:       fmt.Sprintf("rsknop:load:%d", k),
						Contenders: rskContenders(cfg.Cores, "load"),
					},
					Protocol: Protocol{Warmup: 3, Iters: 20, Trace: p.Int("trace", 512)},
				},
			}}, nil
		},
	})

	// fig5: the nop-insertion timelines — one trace-bearing job per k
	// (the paper shows k = 1, 2, 5, 6: γ decreases until the alignment
	// wraps and jumps back up).
	Register(Generator{
		Name:   "fig5",
		Desc:   "Fig. 5 nop-insertion timelines on the toy platform, one job per k",
		Params: map[string]ParamKind{"ks": ParamInts, "trace": ParamInt},
		Expand: func(p Params) ([]Job, error) {
			ks := p.Ints("ks", []int{1, 2, 5, 6})
			nc, err := coresOf("toy")
			if err != nil {
				return nil, err
			}
			jobs := make([]Job, 0, len(ks))
			for _, k := range ks {
				jobs = append(jobs, Job{
					ID: fmt.Sprintf("fig5/k=%d", k),
					Scenario: Scenario{
						Platform: PlatformSpec{Arch: "toy"},
						Workload: WorkloadSpec{
							Scua:       fmt.Sprintf("rsknop:load:%d", k),
							Contenders: rskContenders(nc, "load"),
						},
						Protocol: Protocol{Warmup: 3, Iters: 10, Trace: p.Int("trace", 512)},
					},
				})
			}
			return jobs, nil
		},
	})

	// fig6a: random EEMBC-like task sets plus the 4xRSK reference row.
	Register(Generator{
		Name:   "fig6a",
		Desc:   "ready-contender histograms of random EEMBC workloads vs 4xrsk (Fig. 6a)",
		Params: map[string]ParamKind{"arch": ParamString, "count": ParamInt, "seed": ParamUint},
		Expand: func(p Params) ([]Job, error) {
			arch := p.String("arch", "ref")
			count := p.Int("count", 8)
			seed := p.Uint64("seed", 1)
			nc, err := coresOf(arch)
			if err != nil {
				return nil, err
			}
			sets := workload.RandomTaskSets(count, nc, seed)
			jobs := make([]Job, 0, count+1)
			for i, ts := range sets {
				jobs = append(jobs, Job{
					ID: fmt.Sprintf("fig6a/set%d", i),
					Scenario: Scenario{
						Platform: PlatformSpec{Arch: arch},
						Workload: WorkloadSpec{Scua: ts.Names[0], Contenders: ts.Names[1:], Seed: ts.Seed},
						Protocol: Protocol{Warmup: 2, Iters: 6, Gammas: true},
					},
				})
			}
			jobs = append(jobs, Job{
				ID: "fig6a/4xrsk",
				Scenario: Scenario{
					Platform: PlatformSpec{Arch: arch},
					Workload: WorkloadSpec{Scua: "rsk:load", Contenders: rskContenders(nc, "load")},
					Protocol: Protocol{Warmup: 3, Iters: 10, Gammas: true},
				},
			})
			return jobs, nil
		},
	})

	// fig6b: the rsk-vs-3-rsk contention histograms per architecture.
	Register(Generator{
		Name:   "fig6b",
		Desc:   "contention-delay histograms of rsk vs Nc-1 rsk (Fig. 6b)",
		Params: map[string]ParamKind{"archs": ParamStrings, "arch": ParamString, "arch2": ParamString},
		Expand: func(p Params) ([]Job, error) {
			var jobs []Job
			archs := p.Strings("archs", []string{p.String("arch", "ref"), p.String("arch2", "var")})
			for _, arch := range archs {
				nc, err := coresOf(arch)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, Job{
					ID: "fig6b/" + arch,
					Scenario: Scenario{
						Platform: PlatformSpec{Arch: arch},
						Workload: WorkloadSpec{Scua: "rsk:load", Contenders: rskContenders(nc, "load")},
						Protocol: Protocol{Warmup: 3, Iters: 50, Gammas: true},
					},
				})
			}
			return jobs, nil
		},
	})

	// fig7: the rsk-nop slowdown sweep — the paper's central experiment
	// and the canonical shardable job list (one job per k, isolation
	// paired). params: arch, type (load|store), kmax, iters, warmup.
	Register(Generator{
		Name:   "fig7",
		Desc:   "rsk-nop(t,k) slowdown sweep, isolation-paired (Fig. 7 / derivation input)",
		Params: map[string]ParamKind{"arch": ParamString, "type": ParamString, "kmin": ParamInt, "kmax": ParamInt, "warmup": ParamUint, "iters": ParamUint},
		Expand: func(p Params) ([]Job, error) {
			arch := p.String("arch", "ref")
			typ := p.String("type", "load")
			return sweepJobs(fmt.Sprintf("fig7/%s/%s", arch, typ), arch, typ,
				p.Int("kmin", 1), p.Int("kmax", 60), p.Uint64("warmup", 3), p.Uint64("iters", 20))
		},
	})

	// fig7a: the Fig. 7(a) pair of load sweeps — the ref sweep followed by
	// the var sweep in one job list, so one recorded file holds the whole
	// two-architecture figure.
	Register(Generator{
		Name:   "fig7a",
		Desc:   "rsk-nop(load,k) slowdown sweeps on ref and var (Fig. 7a)",
		Params: map[string]ParamKind{"arch": ParamString, "arch2": ParamString, "kmax": ParamInt, "warmup": ParamUint, "iters": ParamUint},
		Expand: func(p Params) ([]Job, error) {
			kmax := p.Int("kmax", 60)
			warmup, iters := p.Uint64("warmup", 3), p.Uint64("iters", 20)
			var jobs []Job
			for _, arch := range []string{p.String("arch", "ref"), p.String("arch2", "var")} {
				part, err := sweepJobs("fig7a/"+arch, arch, "load", 1, kmax, warmup, iters)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, part...)
			}
			return jobs, nil
		},
	})

	// fig7b: the Fig. 7(b) store sweep — a fig7-shaped list whose renderer
	// reports where the store buffer starts hiding all contention.
	Register(Generator{
		Name:   "fig7b",
		Desc:   "rsk-nop(store,k) slowdown sweep (Fig. 7b)",
		Params: map[string]ParamKind{"arch": ParamString, "kmax": ParamInt, "warmup": ParamUint, "iters": ParamUint},
		Expand: func(p Params) ([]Job, error) {
			arch := p.String("arch", "ref")
			return sweepJobs("fig7b/"+arch, arch, "store",
				1, p.Int("kmax", 60), p.Uint64("warmup", 3), p.Uint64("iters", 20))
		},
	})

	// derive: the methodology's measurement sweep — fig7-shaped jobs at
	// the derivation protocol (unroll 2, warmup 3, 20 iters) for a fixed
	// k range, preceded by the δnop calibration job at index 0. Detection
	// runs over the merged series (core.DeriveFromSeries).
	Register(Generator{
		Name:   "derive",
		Desc:   "derivation k-sweep: δnop calibration + isolation-paired rsk-nop jobs",
		Params: map[string]ParamKind{"arch": ParamString, "type": ParamString, "cores": ParamInt, "transfer": ParamInt, "l2hit": ParamInt, "kmin": ParamInt, "kmax": ParamInt},
		Expand: func(p Params) ([]Job, error) {
			arch := p.String("arch", "ref")
			typ := p.String("type", "load")
			platform := PlatformSpec{
				Arch:     arch,
				Cores:    p.Int("cores", 0),
				Transfer: p.Int("transfer", 0),
				L2Hit:    p.Int("l2hit", 0),
			}
			// A generator plan is one fixed range (the facade's
			// auto-extending derivation compiles DerivePlan pass by
			// pass), so the default must already cover the >= 2 full
			// periods detection needs (ubd = 27 on the stock platforms).
			return deriveBlock(fmt.Sprintf("derive/%s/%s", arch, typ), platform, typ,
				p.Int("kmin", 1), p.Int("kmax", 80))
		},
	})

	// abl-scaling: the Eq. 1 recovery grid — a derivation block per
	// (cores, l2hit) geometry, flattened into one shardable job list.
	Register(Generator{
		Name:   "abl-scaling",
		Desc:   "Eq. 1 recovery grid: derivation sweeps across geometries (ablation E9c)",
		Params: map[string]ParamKind{"arch": ParamString, "cores": ParamInts, "l2hits": ParamInts, "kmax": ParamInt},
		Expand: func(p Params) ([]Job, error) {
			arch := p.String("arch", "ref")
			cores := p.Ints("cores", []int{2, 4, 6, 8})
			l2hits := p.Ints("l2hits", []int{3, 6, 12})
			kmax := p.Int("kmax", 0)
			var jobs []Job
			for _, nc := range cores {
				for _, l2 := range l2hits {
					km := kmax
					if km == 0 {
						// Cover >= 2 periods of ubd = (nc-1)*(3+l2).
						km = 2*(nc-1)*(3+l2) + 8
					}
					block, err := deriveBlock(fmt.Sprintf("abl-scaling/n%d-l%d", nc, 3+l2),
						PlatformSpec{Arch: arch, Cores: nc, Transfer: 3, L2Hit: l2}, "load", 1, km)
					if err != nil {
						return nil, err
					}
					jobs = append(jobs, block...)
				}
			}
			return jobs, nil
		},
	})

	// abl-arb: the arbitration-policy ablation — one derivation block per
	// policy, so the per-policy bounds re-derive from the recorded rows.
	Register(Generator{
		Name:   "abl-arb",
		Desc:   "derivation sweeps under each arbitration policy (ablation E9a)",
		Params: map[string]ParamKind{"arch": ParamString, "kmax": ParamInt},
		Expand: func(p Params) ([]Job, error) {
			arch := p.String("arch", "ref")
			kmax := p.Int("kmax", 60)
			var jobs []Job
			for _, arb := range []string{"rr", "tdma", "fp", "lottery", "wrr"} {
				block, err := deriveBlock("abl-arb/"+arb,
					PlatformSpec{Arch: arch, Arbiter: arb}, "load", 1, kmax)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, block...)
			}
			return jobs, nil
		},
	})

	// abl-dnop: the E9b ablation — a derivation block per nop latency.
	// Platforms whose nop costs more than one cycle sample the saw-tooth
	// sparsely; the naive period×δnop reading aliases, the model fit does
	// not.
	Register(Generator{
		Name:   "abl-dnop",
		Desc:   "derivation sweeps across nop latencies 1..max_nop (ablation E9b)",
		Params: map[string]ParamKind{"arch": ParamString, "max_nop": ParamInt, "kmax": ParamInt},
		Expand: func(p Params) ([]Job, error) {
			arch := p.String("arch", "ref")
			maxNop := p.Int("max_nop", 3)
			if maxNop < 1 {
				return nil, fmt.Errorf("max_nop %d (want >= 1)", maxNop)
			}
			// ExactPeriod reads the repeat distance in k steps: sampling
			// γ(δ) every δnop cycles repeats after lcm(ubd, δnop)/δnop
			// steps — at most ubd — so the stock default must cover two
			// full ubd-step periods.
			kmax := p.Int("kmax", 80)
			var jobs []Job
			for n := 1; n <= maxNop; n++ {
				block, err := deriveBlock(fmt.Sprintf("abl-dnop/nop%d", n),
					PlatformSpec{Arch: arch, NopLatency: n}, "load", 1, kmax)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, block...)
			}
			return jobs, nil
		},
	})

	// mix: seeded random workload mixes — scuas of varying injection
	// periods against mixed EEMBC-like/rsk/idle contenders under randomly
	// parameterized arbitration policies. This stresses the WRR/TDMA
	// arbiters far beyond the paper's five ablation points while staying
	// fully deterministic: the same seed always expands to the identical
	// job list.
	Register(Generator{
		Name:   "mix",
		Desc:   "seeded random workload mixes across arbitration policies",
		Params: map[string]ParamKind{"arch": ParamString, "count": ParamInt, "seed": ParamUint, "arbiters": ParamStrings, "kmax": ParamInt},
		Expand: func(p Params) ([]Job, error) {
			arch := p.String("arch", "ref")
			count := p.Int("count", 8)
			if count < 1 {
				return nil, fmt.Errorf("count %d (want >= 1)", count)
			}
			seed := p.Uint64("seed", 1)
			arbs := p.Strings("arbiters", []string{"rr", "wrr", "tdma"})
			kmax := p.Int("kmax", 40)
			cfg, err := sim.ByName(arch)
			if err != nil {
				return nil, err
			}
			// One fixed-seed stream drives every draw, so the expansion
			// is a pure function of (params); job i's draws depend only
			// on the draws before it, never on wall clock or map order.
			rng := rand.New(rand.NewSource(int64(seed)))
			contenderPool := append([]string{"rsk:load", "rsk:store", IdleSpec}, workload.Names()...)
			jobs := make([]Job, 0, count)
			for i := 0; i < count; i++ {
				arb := arbs[rng.Intn(len(arbs))]
				plat := PlatformSpec{Arch: arch, Arbiter: arb}
				switch arb {
				case "wrr":
					w := make([]int, cfg.Cores)
					for c := range w {
						w[c] = 1 + rng.Intn(3)
					}
					plat.WRRWeights = w
				case "tdma":
					// Slots from one transfer up to ~2 full transactions,
					// raised to one full transaction: a shorter slot can
					// starve a port (sim.Config.Validate rejects it).
					// Raising, not redrawing, keeps the rng stream and
					// every in-range draw.
					slot := cfg.BusTransferLat + rng.Intn(2*cfg.BusLatency())
					plat.TDMASlot = max(slot, cfg.BusLatency())
				}
				typ := "load"
				if rng.Intn(4) == 0 {
					typ = "store"
				}
				contenders := make([]string, cfg.Cores-1)
				for c := range contenders {
					contenders[c] = contenderPool[rng.Intn(len(contenderPool))]
				}
				jobs = append(jobs, Job{
					ID:        fmt.Sprintf("mix/%03d/%s", i, arb),
					Isolation: true,
					Scenario: Scenario{
						Platform: plat,
						Workload: WorkloadSpec{
							Scua:       fmt.Sprintf("rsknop:%s:%d", typ, 1+rng.Intn(kmax)),
							Contenders: contenders,
							Seed:       seed + uint64(i)*7919,
						},
						Protocol: Protocol{Warmup: 2, Iters: 10, Gammas: true},
					},
				})
			}
			return jobs, nil
		},
	})

	// etb: §4.3 "Using ubdm" — the task's execution-time bound
	// ETB = isolation + nr·ubdm, checked against observed contention.
	// Job 0 runs the task alone: its row's Cycles and Requests are the
	// isolation time and nr. Job 1 runs it against Nc−1 rsk(load), jobs
	// 2.. against the last Nc−1 tasks of each random task set. Every job
	// builds its programs from one seed at the default protocol, so the
	// task is the same program in every row. ubdm (default Eq. 1) rides
	// in the scenario name, which no job hash covers: one row serves
	// every ubdm.
	Register(Generator{
		Name:   "etb",
		Desc:   "§4.3 execution-time bound of a task alone, checked vs Nc-1 rsk and random task sets",
		Params: map[string]ParamKind{"arch": ParamString, "task": ParamString, "seed": ParamUint, "count": ParamInt, "ubdm": ParamInt},
		Expand: func(p Params) ([]Job, error) {
			arch := p.String("arch", "ref")
			task := p.String("task", "tblook")
			seed := p.Uint64("seed", 1)
			count := p.Int("count", 8)
			cfg, err := sim.ByName(arch)
			if err != nil {
				return nil, err
			}
			ubdm := p.Int("ubdm", cfg.UBD())
			if ubdm < 1 {
				return nil, fmt.Errorf("ubdm %d (want >= 1)", ubdm)
			}
			if count < 0 {
				return nil, fmt.Errorf("count %d (want >= 0)", count)
			}
			job := func(name string, contenders []string) Job {
				return Job{
					ID: fmt.Sprintf("etb/%s/%s/%s", arch, task, name),
					Scenario: Scenario{
						Name:     etbPrefix + strconv.Itoa(ubdm),
						Platform: PlatformSpec{Arch: arch},
						Workload: WorkloadSpec{Scua: task, Contenders: contenders, Seed: seed},
					},
				}
			}
			jobs := make([]Job, 0, count+2)
			jobs = append(jobs, job("alone", nil), job("rsk", rskContenders(cfg.Cores, "load")))
			for i, ts := range workload.RandomTaskSets(count, cfg.Cores, seed) {
				jobs = append(jobs, job(fmt.Sprintf("set%d", i), ts.Names[1:]))
			}
			return jobs, nil
		},
	})
}

// etbPrefix starts the scenario name of every etb job; the ubdm follows.
const etbPrefix = "etb ubdm="

// ETBUBDm returns the ubdm an etb job pads with, read off its scenario
// name.
func ETBUBDm(j Job) (int, error) {
	s, ok := strings.CutPrefix(j.Scenario.Name, etbPrefix)
	n, err := strconv.Atoi(s)
	if !ok || err != nil || n < 1 {
		return 0, fmt.Errorf("job %q is not an etb job (scenario name %q)", j.ID, j.Scenario.Name)
	}
	return n, nil
}
