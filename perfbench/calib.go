package main

import "time"

// The machines this benchmark runs on are shared, and their speed drifts
// by ±20% over minutes: the same pass, in the same process, can take 0.45
// or 0.7 s. Wall times alone would make every run-to-run spread wider
// than any useful regression bound. So the run times a fixed reference
// computation between its timed operations, and every time it reports is
// divided by the run's speed factor: the reference's mean time over its
// time on the calibration VM. A change to rrbus cannot move the
// reference, which shares no code with it, so a real speed-up or slowdown
// shows in full while machine drift cancels. On the calibration VM this
// cut the spread of a simulation-bound workload's time from 11% to 5%.

// refNominal is one burst of the reference on the calibration VM (2-vCPU
// x86-64, Go 1.24), when quiet.
const refNominal = 7 * time.Millisecond

// burstEvery is how much timed work may pass between two bursts.
const burstEvery = 100 * time.Millisecond

// speedMeter times reference bursts between a run's timed operations.
type speedMeter struct {
	since  time.Duration // timed work since the last burst
	worked time.Duration // all timed work
	// Bursts are each burst's time in ms, and at the timed work done
	// before it, in seconds: the raw data behind the factor.
	Bursts []float64 `json:"bursts_ms"`
	At     []float64 `json:"at_s"`
}

// work records d of timed work and reports whether a burst is due.
func (m *speedMeter) work(d time.Duration) bool {
	m.since += d
	m.worked += d
	return m.since >= burstEvery
}

// burst runs and times one reference burst; it returns the time taken.
func (m *speedMeter) burst() time.Duration {
	t0 := time.Now()
	refModel(1_000_000)
	d := time.Since(t0)
	m.Bursts = append(m.Bursts, ms(d))
	m.At = append(m.At, m.worked.Seconds())
	m.since = 0
	return d
}

// factor is how much slower than the calibration VM the run went: 1 at
// the calibration speed, 1.2 when the reference took 20% longer.
func (m *speedMeter) factor() float64 {
	if len(m.Bursts) == 0 {
		return 1
	}
	var sum float64
	for _, b := range m.Bursts {
		sum += b
	}
	return sum / float64(len(m.Bursts)) / ms(refNominal)
}

// refModel is the reference computation: a small cycle-level model of the
// platform the paper studies, written independently of rrbus — four cores
// issuing a pseudo-random address stream into private 4-way LRU caches,
// misses queueing for a round-robin bus held 9 cycles per transfer. It
// exercises the same kind of branchy integer and table work as the
// simulator, so contention on the host slows it alike.
func refModel(cycles int) {
	const cores, sets, ways = 4, 256, 4
	var tags [cores][sets][ways]uint64
	var age [cores][sets][ways]uint32
	var pending [cores]bool
	var addr [cores]uint64
	lcg := uint64(12345)
	next, busFree := 0, 0
	var clock uint32
	for cycle := 0; cycle < cycles; cycle++ {
		clock++
		for c := 0; c < cores; c++ {
			if pending[c] {
				continue
			}
			lcg = lcg*6364136223846793005 + 1442695040888963407
			a := (lcg >> 20) & 0xfffff
			set, tag := (a>>6)%sets, a>>14
			hit, lru := false, 0
			for w := 0; w < ways; w++ {
				if tags[c][set][w] == tag {
					hit = true
					age[c][set][w] = clock
					break
				}
				if age[c][set][w] < age[c][set][lru] {
					lru = w
				}
			}
			if !hit {
				tags[c][set][lru], age[c][set][lru] = tag, clock
				pending[c], addr[c] = true, a
			}
		}
		if cycle < busFree {
			continue
		}
		for i := 0; i < cores; i++ {
			if c := (next + i) % cores; pending[c] {
				pending[c] = false
				busFree, next = cycle+9, (c+1)%cores
				sink += addr[c]
				break
			}
		}
	}
}
