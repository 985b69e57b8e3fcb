package sim

import (
	"reflect"
	"testing"

	"rrbus/internal/cache"
	"rrbus/internal/isa"
	"rrbus/internal/kernel"
	"rrbus/internal/workload"
)

// fuzzBytes hands out fuzz input one byte at a time; past its end every
// byte is 0, so any input decodes.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// pick returns the next byte mod n.
func (b *fuzzBytes) pick(n int) int { return int(b.next()) % n }

// fuzzCycleBudget bounds each engine run of a fuzz input. A run that
// exceeds it (a fixed-priority core starved behind saturating ones) is
// skipped, not failed.
const fuzzCycleBudget = 1 << 20

// decodeEngineInput turns fuzz bytes into a small platform and a workload,
// one byte per choice, in this order: cores (2–4), bus transfer and L2-hit
// latency, the DL1 and IL1 shapes, the three caches' replacement policies,
// the L2 shape and write policy, the arbiter and its parameter, the
// workload kind (a seeded task-set mix, rsk/rsk-nop kernels, or rsk-nop
// against L2-missing contenders) and its access type and nop count or
// seed, the scua's core, the unroll factor, warmup and measured
// iterations, whether an isolation run is added, and per contender slot
// whether it is idle.
func decodeEngineInput(data []byte) (cfg Config, w Workload, opt RunOpts, isolation bool, err error) {
	in := fuzzBytes(data)
	cores := 2 + in.pick(3)
	cfg = Scaled(NGMPRef(), cores, 1+in.pick(3), in.pick(7))
	l1Shapes := [][2]int{{16 << 10, 4}, {4 << 10, 2}, {1 << 10, 4}, {2 << 10, 1}}
	for _, c := range []*cache.Config{&cfg.DL1, &cfg.IL1} {
		s := l1Shapes[in.pick(len(l1Shapes))]
		c.SizeBytes, c.Ways = s[0], s[1]
	}
	policies := []cache.Policy{cache.LRU, cache.FIFO, cache.Random}
	for _, c := range []*cache.Config{&cfg.DL1, &cfg.IL1, &cfg.L2} {
		c.Policy = policies[in.pick(len(policies))]
	}
	switch in.pick(3) {
	case 1: // partitioned, 4 KiB per way: L2 misses under any load
		cfg.L2.SizeBytes = (4 << 10) * cores
	case 2: // shared, 8 ways
		cfg.L2.Partitioned, cfg.L2.Ways, cfg.L2.SizeBytes = false, 8, 32<<10
	}
	if in.pick(2) == 1 {
		cfg.L2.Write = cache.WriteThrough
	}
	arbiters := []ArbiterKind{ArbiterRR, ArbiterWRR, ArbiterTDMA, ArbiterFP, ArbiterLottery}
	cfg.Arbiter = arbiters[in.pick(len(arbiters))]
	param := in.next()
	switch cfg.Arbiter {
	case ArbiterWRR:
		cfg.WRRWeights = make([]int, cores)
		for i := range cfg.WRRWeights {
			cfg.WRRWeights[i] = 1 + int(param>>i)%3
		}
	case ArbiterTDMA:
		cfg.TDMASlot = cfg.BusLatency() + int(param%4)
	case ArbiterLottery:
		cfg.LotterySeed = uint64(param)
	}

	kind, op := in.pick(3), isa.OpLoad
	a, b := in.next(), in.next()
	if a%2 == 1 {
		op = isa.OpStore
	}
	k := int(b % 16)
	scuaCore := in.pick(cores)
	kb := kernel.NewBuilder(cfg.DL1, cfg.IL1, cfg.L2)
	kb.Unroll = 1 + in.pick(2)
	progs := make([]*isa.Program, cores)
	switch kind {
	case 0:
		progs, err = workload.RandomTaskSets(1, cores, uint64(a)|uint64(b)<<8)[0].Build()
	default:
		for c := range progs {
			switch {
			case c == scuaCore && k == 0:
				progs[c], err = kb.RSK(c, op)
			case c == scuaCore:
				progs[c], err = kb.RSKNop(c, op, k)
			case kind == 1:
				progs[c], err = kb.RSK(c, op)
			default:
				progs[c], err = kb.L2MissKernel(c, op)
			}
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		return cfg, w, opt, false, err
	}
	opt = RunOpts{
		WarmupIters:   uint64(1 + in.pick(3)),
		MeasureIters:  uint64(2 + in.pick(14)),
		MaxCycles:     fuzzCycleBudget,
		CollectGammas: true,
	}
	isolation = in.pick(2) == 1
	w = Workload{Scua: progs[scuaCore], ScuaCore: scuaCore}
	for c, p := range progs {
		if c == scuaCore {
			continue
		}
		if in.pick(4) == 0 {
			p = nil // an idle slot
		}
		w.Contenders = append(w.Contenders, p)
	}
	return cfg, w, opt, isolation, nil
}

// FuzzEngineEquivalence decodes fuzz bytes into a platform and a workload
// (decodeEngineInput) and requires the Oracle, Event and Steady engines to
// produce DeepEqual Measurements, for the contended run and, when the
// input asks, the scua's isolation run.
func FuzzEngineEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, w, opt, isolation, err := decodeEngineInput(data)
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("decoded an invalid platform: %v", verr)
		}
		if err != nil {
			t.Skipf("workload does not build: %v", err)
		}
		runs := []Workload{w}
		if isolation {
			runs = append(runs, Workload{Scua: w.Scua, ScuaCore: w.ScuaCore})
		}
		for _, w := range runs {
			mode := func(e Engine) (*Measurement, error) {
				o := opt
				o.Engine = e
				return Run(cfg, w, o)
			}
			event, err := mode(Event)
			if err != nil {
				t.Skipf("over the cycle budget: %v", err)
			}
			oracle, err := mode(Oracle)
			if err != nil {
				t.Fatalf("oracle fails where event ran: %v", err)
			}
			steady, err := mode(Steady)
			if err != nil {
				t.Fatalf("steady fails where event ran: %v", err)
			}
			if !reflect.DeepEqual(oracle, event) {
				t.Errorf("%s: event core deviates from oracle:\noracle: %+v\nevent:  %+v", cfg.Name, oracle, event)
			}
			if !reflect.DeepEqual(oracle, steady) {
				t.Errorf("%s: steady-state engine deviates from oracle:\noracle: %+v\nsteady: %+v", cfg.Name, oracle, steady)
			}
		}
	})
}
