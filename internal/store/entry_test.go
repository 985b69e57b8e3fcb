package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"rrbus/internal/bus"
	"rrbus/internal/scenario"
	"rrbus/internal/trace"
)

// fuzzHash is the job hash FuzzDecodeEntry decodes every input under;
// the seed corpus entries are framed with it.
var fuzzHash = strings.Repeat("5e", 32)

// decodeEntryReference is the decoder Get used before the framing
// reader, kept as the oracle FuzzDecodeEntry checks decodeEntry against:
// it decodes the JSON envelope with the row kept raw, checks the schema,
// the hash and the checksum, then decodes the row a second time.
func decodeEntryReference(jobHash string, data []byte) (scenario.Result, error) {
	var zero scenario.Result
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return zero, &CorruptError{Hash: jobHash, Reason: fmt.Sprintf("entry does not parse: %v", err)}
	}
	if e.Schema > scenario.ResultSchema {
		return zero, fmt.Errorf("store: %s: entry schema %d but this build reads <= %d — store written by a newer version?",
			jobHash, e.Schema, scenario.ResultSchema)
	}
	if e.Hash != jobHash {
		return zero, &CorruptError{Hash: jobHash, Reason: fmt.Sprintf("entry claims hash %s", e.Hash)}
	}
	if got := sumOf(jobHash, e.Result); got != e.Sum {
		return zero, &CorruptError{Hash: jobHash,
			Reason: fmt.Sprintf("checksum mismatch (stored %s, computed %s) — corrupted entry", e.Sum, got)}
	}
	var r scenario.Result
	if err := json.Unmarshal(e.Result, &r); err != nil {
		return zero, &CorruptError{Hash: jobHash, Reason: fmt.Sprintf("row does not parse: %v", err)}
	}
	if r.Schema > scenario.ResultSchema {
		return zero, fmt.Errorf("store: %s: row schema %d but this build reads <= %d", jobHash, r.Schema, scenario.ResultSchema)
	}
	return r, nil
}

// inFraming reports whether data is an entry in the store's framing as
// the reference reads it: the envelope decodes, and laying its four
// fields out in the framing gives back data.
func inFraming(data []byte) bool {
	var e entry
	if json.Unmarshal(data, &e) != nil {
		return false
	}
	framed := `{"schema":` + strconv.Itoa(e.Schema) + `,"hash":"` + e.Hash + `","sum":"` + e.Sum +
		`","result":` + string(e.Result) + "}\n"
	return framed == string(data)
}

// FuzzDecodeEntry is the differential test of the framing reader against
// decodeEntryReference. The reader never accepts an entry the reference
// rejects, and where both accept they return the same row. It accepts
// every entry in the framing that the reference accepts. A newer-schema
// error and a corrupt error never trade classes: the reader calls an
// entry newer only where the reference does, and in the framing it
// calls it corrupt only where the reference does. An entry outside the
// framing is corrupt whatever the reference says. Nothing the reader
// returns aliases its input.
func FuzzDecodeEntry(f *testing.F) {
	// A minimal row under schema spellings at the edges of the JSON
	// integer grammar, beside the corpus of whole entries in testdata.
	row := `{"schema":1,"cycles":7}`
	sum := sumOf(fuzzHash, []byte(row))
	for _, schema := range []string{"1", "0", "-0", "01", "+1", "1.0", "1e0", "99999999999999999999"} {
		f.Add([]byte(`{"schema":` + schema + `,"hash":"` + fuzzHash + `","sum":"` + sum + `","result":` + row + "}\n"))
	}
	// An intact entry of another job, filed under fuzzHash.
	other := strings.Repeat("0", 64)
	f.Add([]byte(`{"schema":1,"hash":"` + other + `","sum":"` + sumOf(other, []byte(row)) + `","result":` + row + "}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		got, err := decodeEntry(fuzzHash, in)
		want, refErr := decodeEntryReference(fuzzHash, data)
		framed := inFraming(data)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("accepted an entry the reference rejects: %v", refErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("row %+v, reference row %+v", got, want)
		case err != nil && refErr == nil && framed:
			t.Fatalf("rejected an entry in the framing that the reference accepts: %v", err)
		case err != nil && !IsCorrupt(err) && (refErr == nil || IsCorrupt(refErr)):
			t.Fatalf("newer-schema error %q where the reference says %v", err, refErr)
		case err != nil && refErr != nil && framed && IsCorrupt(err) != IsCorrupt(refErr):
			t.Fatalf("in the framing: error %q, reference error %q", err, refErr)
		}
		var msg string
		if err != nil {
			msg = err.Error()
		}
		for i := range in {
			in[i] = '#'
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("row changed with the entry's bytes: %+v", got)
		}
		if err != nil && err.Error() != msg {
			t.Fatalf("error changed with the entry's bytes: %q, was %q", err, msg)
		}
	})
}

// TestEntryRoundTrip checks that rows of each shape marshalEntry writes —
// histograms, a trace window, floats and escaped strings — come back
// from Get as Put recorded them, and pins the framing of a minimal row.
func TestEntryRoundTrip(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]scenario.Result{
		"histograms": {ID: "fig6/k=3", Platform: "ref", Cores: 4, Cycles: 91234, TotalCycles: 100000, Iters: 20,
			Requests: 640, MaxGamma: 27, AvgGamma: 13.5, GammaHist: []uint64{0, 3, 0, 0, 17, 2},
			ContendersHist: []uint64{5, 0, 635}},
		"trace": {Schema: scenario.ResultSchema, Platform: "toy", Cores: 4, Cycles: 600, Trace: []trace.Event{
			{Port: 0, Kind: bus.KindLoad, Ready: 10, Grant: 19, Gamma: 9, Occupancy: 3, Addr: 0x1000},
			{Port: 3, Kind: bus.KindStore, Ready: 12, Grant: 22, Gamma: 10, Occupancy: 3},
		}},
		"floats": {Platform: "var<&>", Cycles: 1, AvgGamma: 1.0 / 3, Utilization: 0.999999999999,
			IsolationCycles: 3, Slowdown: -2},
	}
	for name, r := range rows {
		t.Run(name, func(t *testing.T) {
			h := fmt.Sprintf("%x", sha256.Sum256([]byte(name)))
			if err := d.Put(h, r); err != nil {
				t.Fatal(err)
			}
			got, ok, err := d.Get(h)
			if err != nil || !ok {
				t.Fatalf("get: ok=%v err=%v", ok, err)
			}
			if want := normalize(r); !reflect.DeepEqual(got, want) {
				t.Errorf("got %+v\nwant %+v", got, want)
			}
		})
	}

	h := strings.Repeat("0", 64)
	if err := d.Put(h, scenario.Result{ID: "x", Cycles: 5}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(d.jobPath(h))
	if err != nil {
		t.Fatal(err)
	}
	row := `{"schema":1,"cycles":5}`
	want := `{"schema":1,"hash":"` + h + `","sum":"` + sumOf(h, []byte(row)) + `","result":` + row + "}\n"
	if string(data) != want {
		t.Errorf("entry bytes\n%s\nwant\n%s", data, want)
	}
}

// TestDirHashRule checks that every Dir method that turns a hash into a
// path refuses one that is not 64 lowercase hex digits, with an error
// that is neither transient nor corrupt, and touches nothing outside the
// store root.
func TestDirHashRule(t *testing.T) {
	top := t.TempDir()
	d, err := OpenDir(filepath.Join(top, "a", "st"))
	if err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(top, "x.json")
	if err := os.WriteFile(outside, []byte("keep\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"", "../../../x", "../../x", strings.Repeat("A", 64), strings.Repeat("a", 63),
		strings.Repeat("a", 65), strings.Repeat("a", 62) + "/x", strings.Repeat("g", 64)} {
		_, _, getErr := d.Get(h)
		_, specErr := d.PlanSpec(h)
		var infoErr error
		if info := d.PlanInfo(h); info.Err != "" {
			infoErr = errors.New(info.Err)
		}
		ops := map[string]error{
			"Get":               getErr,
			"Put":               d.Put(h, scenario.Result{Cycles: 1}),
			"Quarantine":        d.Quarantine(h, "test"),
			"RemoveJob":         d.RemoveJob(h),
			"RemoveQuarantined": d.RemoveQuarantined(h),
			"PlanSpec":          specErr,
			"PlanInfo":          infoErr,
		}
		for op, err := range ops {
			if err == nil || IsTransient(err) || IsCorrupt(err) || !strings.Contains(err.Error(), "not a content hash") {
				t.Errorf("%s(%q): err %v, want a plain refusal naming the hash rule", op, h, err)
			}
		}
	}
	if data, err := os.ReadFile(outside); err != nil || string(data) != "keep\n" {
		t.Errorf("file outside the root: %q, %v", data, err)
	}
	ents, err := os.ReadDir(top)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Errorf("the directory above the root holds %d entries, want a and x.json", len(ents))
	}
}

// TestDirGetAllocs pins the allocations of one warm Get of a toy row.
func TestDirGetAllocs(t *testing.T) {
	c, err := scenario.CompileGenerator("fig7", scenario.Params{"arch": "toy", "kmax": 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Session{Store: d}).RunAll(c); err != nil {
		t.Fatal(err)
	}
	h := c.JobHashes()[1]
	if _, ok, err := d.Get(h); err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	allocs := testing.AllocsPerRun(50, func() { d.Get(h) })
	if allocs > 7 {
		t.Errorf("%.0f allocations per Get, want at most 7", allocs)
	}
}
