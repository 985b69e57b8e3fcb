package store_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"rrbus/internal/exp"
	"rrbus/internal/scenario"
	"rrbus/internal/store"
)

// The chaos suite: runs the pipeline against a store.Faulty wrapper and
// asserts the resilience contract — under injected transient failures,
// corruption and latency, a retrying session still renders output
// byte-identical to a fault-free run, and every fault is accounted for
// in the session counters.

// fillMem runs the plan cold into a fresh Mem store and returns it with
// the clean JSONL bytes for later identity checks.
func fillMem(t *testing.T, kmax int) (*store.Mem, []byte) {
	t.Helper()
	st := store.NewMem()
	c := compileFig7(t, kmax)
	rows, _ := jsonlOf(t, st, c)
	return st, rows
}

// sinkTo streams the plan through sess into buf as JSONL, failing the
// test on any error.
func sinkTo(t *testing.T, sess *store.Session, c *scenario.Compiled, buf *bytes.Buffer) {
	t.Helper()
	sink := exp.NewJSONLSink[scenario.Result](buf)
	if err := sess.Run(c, sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosTransientFaultsRetry checks the retry half: periodic
// transient Get/Put failures (plus injected latency) are absorbed by the
// retry policy — the warm run completes without simulating anything and
// its bytes match the clean run.
func TestChaosTransientFaultsRetry(t *testing.T) {
	st, clean := fillMem(t, 12)
	f := &store.Faulty{Under: st, EveryGet: 4, EveryPut: 3, Latency: 100 * time.Microsecond}
	sess := &store.Session{
		Store: f,
		Retry: store.RetryPolicy{Max: 3, BaseDelay: time.Millisecond},
	}
	c := compileFig7(t, 12)
	var buf bytes.Buffer
	sinkTo(t, sess, c, &buf)
	if !bytes.Equal(buf.Bytes(), clean) {
		t.Error("output under transient faults differs from the clean run")
	}
	if sess.Simulated() != 0 {
		t.Errorf("transient faults caused %d re-simulations; retries should have absorbed them", sess.Simulated())
	}
	if sess.Retried() == 0 {
		t.Error("no retries recorded despite injected faults")
	}
	if f.Stats().Injected == 0 {
		t.Error("fault schedule injected nothing — the chaos test tested nothing")
	}
}

// TestChaosCorruptionHealsByteIdentical checks the healing half under
// injected corruption: every corrupt read quarantines and re-simulates,
// the counters balance, and the output stays byte-identical.
func TestChaosCorruptionHealsByteIdentical(t *testing.T) {
	st, clean := fillMem(t, 12)
	f := &store.Faulty{Under: st, EveryCorrupt: 5}
	sess := &store.Session{Store: f}
	c := compileFig7(t, 12)
	var buf bytes.Buffer
	sinkTo(t, sess, c, &buf)
	if !bytes.Equal(buf.Bytes(), clean) {
		t.Error("output under injected corruption differs from the clean run")
	}
	injected := f.Stats().Injected
	if injected == 0 {
		t.Fatal("fault schedule injected nothing")
	}
	if sess.Quarantined() != injected || sess.Repaired() != injected {
		t.Errorf("quarantined %d / repaired %d, want %d each (one per injected corruption)",
			sess.Quarantined(), sess.Repaired(), injected)
	}
	if sess.Simulated() != injected {
		t.Errorf("simulated %d jobs, want exactly the %d corrupted ones", sess.Simulated(), injected)
	}
	// The Mem quarantine log names every healed hash.
	if got := len(st.QuarantinedRows()); int64(got) != injected {
		t.Errorf("store records %d quarantined rows, want %d", got, injected)
	}

	// Every fault kind at once — transient Get and Put failures,
	// corruption and latency — under the CLIs' retry policy
	// (rrbus.DefaultRetry): the retries absorb the transient faults while
	// the healing re-simulates the corrupt rows and records them again.
	t.Run("mixed", func(t *testing.T) {
		st, clean := fillMem(t, 40)
		f := &store.Faulty{Under: st, EveryGet: 5, EveryPut: 3, EveryCorrupt: 7, Latency: 100 * time.Microsecond}
		sess := &store.Session{Store: f, Retry: store.RetryPolicy{Max: 3, BaseDelay: 25 * time.Millisecond}}
		var buf bytes.Buffer
		sinkTo(t, sess, compileFig7(t, 40), &buf)
		if !bytes.Equal(buf.Bytes(), clean) {
			t.Error("output under mixed faults differs from the clean run")
		}
		if sess.Quarantined() == 0 || sess.Quarantined() != sess.Repaired() {
			t.Errorf("quarantined %d / repaired %d, want equal and > 0", sess.Quarantined(), sess.Repaired())
		}
		if sess.Retried() == 0 {
			t.Error("no retries recorded despite injected transient faults")
		}
		fs := f.Stats()
		if fs.Puts < f.EveryPut {
			t.Errorf("%d Puts never reached the every-%d Put fault", fs.Puts, f.EveryPut)
		}
		t.Logf("injected %d faults over %d Gets and %d Puts; retried %d, healed %d",
			fs.Injected, fs.Gets, fs.Puts, sess.Retried(), sess.Repaired())
	})
}

// TestChaosRetryExhaustion checks that a fault the policy cannot absorb
// still fails loudly — transient, job and hash named, injected cause
// preserved — instead of looping forever or degrading silently.
func TestChaosRetryExhaustion(t *testing.T) {
	st, _ := fillMem(t, 4)
	f := &store.Faulty{Under: st, EveryGet: 1} // every Get fails
	sess := &store.Session{Store: f, Retry: store.RetryPolicy{Max: 2, BaseDelay: time.Millisecond}}
	c := compileFig7(t, 4)
	_, err := sess.RunAll(c)
	if err == nil {
		t.Fatal("run succeeded with every Get failing")
	}
	if !store.IsTransient(err) || !errors.Is(err, store.ErrInjected) {
		t.Errorf("error %v lost its transient/injected identity", err)
	}
	if !strings.Contains(err.Error(), "hash ") || !strings.Contains(err.Error(), "job ") {
		t.Errorf("error %v does not name the job and hash", err)
	}
	if sess.Retried() == 0 {
		t.Error("retry policy never engaged")
	}
}

// TestZeroRetryPolicyDisabled pins the zero-value contract: without an
// explicit policy a transient failure surfaces immediately, unretried.
func TestZeroRetryPolicyDisabled(t *testing.T) {
	st, _ := fillMem(t, 3)
	f := &store.Faulty{Under: st, EveryGet: 1}
	sess := &store.Session{Store: f} // zero RetryPolicy
	if _, err := sess.RunAll(compileFig7(t, 3)); err == nil {
		t.Fatal("zero retry policy should not mask a failing store")
	}
	if sess.Retried() != 0 {
		t.Errorf("zero retry policy retried %d times", sess.Retried())
	}
}
