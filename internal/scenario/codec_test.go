package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"rrbus/internal/bus"
	"rrbus/internal/trace"
)

// canonical is the reference form of the canonicalization
// appendCanonical encodes by hand: the scenario with Name cleared, seed
// and protocol defaults made explicit, and contender specs trimmed with
// "" spelled "idle".
func (s Scenario) canonical() Scenario {
	s.Name = ""
	if s.Workload.Seed == 0 {
		s.Workload.Seed = 1
	}
	if s.Protocol.Warmup == 0 {
		s.Protocol.Warmup = 2
	}
	if s.Protocol.Iters == 0 {
		s.Protocol.Iters = 10
	}
	var cont []string
	for _, c := range s.Workload.Contenders {
		c = strings.TrimSpace(c)
		if c == "" {
			c = IdleSpec
		}
		cont = append(cont, c)
	}
	s.Workload.Contenders = cont
	return s
}

// canonicalJSONReference is the encoding Job.Hash hashed before
// appendCanonical: json.Marshal of the canonical scenario and the
// isolation pairing.
func canonicalJSONReference(j Job) []byte {
	c := struct {
		Scenario  Scenario `json:"scenario"`
		Isolation bool     `json:"isolation,omitempty"`
	}{j.Scenario.canonical(), j.Isolation}
	b, err := json.Marshal(c)
	if err != nil {
		panic(err)
	}
	return b
}

// hashReference is Job.Hash over canonicalJSONReference.
func hashReference(j Job) string {
	h := sha256.New()
	fmt.Fprintf(h, "rrbus job schema=%d\n", ResultSchema)
	h.Write(canonicalJSONReference(j))
	return hex.EncodeToString(h.Sum(nil))
}

// FuzzJobHash checks the hand-written canonical encoding against
// json.Marshal of the canonical struct, byte for byte, and Job.Hash
// against the hash of those bytes. The fuzz input sets every Scenario
// field; contenders are the comma-separated parts of one string, and
// the WRR weights are the bytes of another, signed and scaled.
func FuzzJobHash(f *testing.F) {
	for _, g := range []string{"fig2", "fig7", "derive", "mix"} {
		var params Params
		if g == "mix" {
			params = Params{"count": 3}
		}
		c, err := CompileGenerator(g, params)
		if err != nil {
			f.Fatal(err)
		}
		j := c.Jobs[len(c.Jobs)-1]
		s, p, w, pr := j.Scenario, j.Scenario.Platform, j.Scenario.Workload, j.Scenario.Protocol
		var weights []byte
		for _, wt := range p.WRRWeights {
			weights = append(weights, byte(wt))
		}
		f.Add(s.Name, p.Arch, p.Arbiter, w.Scua, strings.Join(w.Contenders, ","), p.Cores, p.Transfer, p.L2Hit,
			p.NopLatency, p.StoreBuffer, p.TDMASlot, p.LotterySeed, weights, w.ScuaCore, w.Seed, w.Unroll,
			pr.Warmup, pr.Iters, pr.Gammas, pr.Trace, j.Isolation)
	}
	f.Add("<&>", "ref ", "fp\x00\x7f", "rsk\\load\"", " ,idle, é ,\xff,\t", -1, math.MinInt, math.MaxInt,
		-7, 0, 3, uint64(math.MaxUint64), []byte{0x80, 0, 0x7f}, -3, uint64(1)<<63, -2,
		uint64(math.MaxUint64), uint64(0), true, -1, true)
	// Each string holds one byte that needs an escape, so dropping any
	// one of them from appendString's rule changes the bytes.
	f.Add("\n", "<", ">", "&", "\",\\,\x01,\u2028", 0, 0, 0, 0, 0, 0, uint64(0), []byte(nil), 0, uint64(0), 0,
		uint64(0), uint64(0), false, 0, false)
	f.Fuzz(func(t *testing.T, name, arch, arbiter, scua, contenders string, cores, transfer, l2hit, nopLatency,
		storeBuffer, tdmaSlot int, lotterySeed uint64, weights []byte, scuaCore int, seed uint64, unroll int,
		warmup, iters uint64, gammas bool, traceLimit int, isolation bool) {
		var cont []string
		if contenders != "" {
			cont = strings.Split(contenders, ",")
		}
		var wrr []int
		if weights != nil {
			wrr = make([]int, len(weights))
			for i, c := range weights {
				wrr[i] = int(int8(c)) * (1 + cores)
			}
		}
		j := Job{ID: name, Isolation: isolation, Scenario: Scenario{
			Name: name,
			Platform: PlatformSpec{Arch: arch, Cores: cores, Transfer: transfer, L2Hit: l2hit,
				NopLatency: nopLatency, StoreBuffer: storeBuffer, Arbiter: arbiter, TDMASlot: tdmaSlot,
				LotterySeed: lotterySeed, WRRWeights: wrr},
			Workload: WorkloadSpec{Scua: scua, ScuaCore: scuaCore, Contenders: cont, Seed: seed, Unroll: unroll},
			Protocol: Protocol{Warmup: warmup, Iters: iters, Gammas: gammas, Trace: traceLimit},
		}}
		want := canonicalJSONReference(j)
		if got := j.appendCanonical(nil); !bytes.Equal(got, want) {
			t.Fatalf("canonical bytes\n%s\njson.Marshal\n%s", got, want)
		}
		if got, want := j.Hash(), hashReference(j); got != want {
			t.Fatalf("hash %s, reference %s", got, want)
		}
	})
}

// FuzzDecodeResult is the differential test of DecodeResult against
// json.Unmarshal, on the fuzz bytes as given and on the json.Marshal of a
// Result built from the fuzz input. DecodeResult never accepts what
// json.Unmarshal rejects, and where both accept the rows are
// reflect.DeepEqual, nil and empty slices told apart. Its one-pass
// reader accepts every json.Marshal of a Result whose strings need no
// escape: histograms, trace events and floats in every format
// json.Marshal uses.
func FuzzDecodeResult(f *testing.F) {
	f.Add([]byte(`{"schema":1,"platform":"toy","cores":4,"cycles":1600,"total_cycles":2215,"iters":20,"requests":200,"max_gamma":1,"avg_gamma":0.9,"utilization":1,"isolation_cycles":1420,"slowdown":180}`),
		"fig7/k=1", 4, uint64(1600), int64(-2), 1e-07, 1e+21, []byte{0, 3, 0, 17})
	f.Add([]byte(`{"cycles":5,"gamma_hist":[],"trace":[{}],"Cycles":6}`), "", 0, uint64(0), int64(0), 0.0, 0.0, []byte(nil))
	f.Add([]byte(`{"cycles":01,"avg_gamma":1e400,"cores":1.0}`), "<&>", -1, uint64(math.MaxUint64), int64(math.MinInt64),
		math.SmallestNonzeroFloat64, math.MaxFloat64, []byte{0xff, 0x80, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte("{\"id\":\"a\x01b\",\"platform\":\"\x7f\"}"), "\x00", 0, uint64(0), int64(0), 0.0, 0.0, []byte(nil))
	f.Fuzz(func(t *testing.T, data []byte, id string, cores int, cycles uint64, slowdown int64, avg, util float64, hist []byte) {
		checkDecodeResult(t, data)

		for _, v := range []*float64{&avg, &util} {
			if math.IsNaN(*v) || math.IsInf(*v, 0) {
				*v = 0
			}
		}
		r := Result{Schema: cores % 3, ID: id, Platform: strings.ToUpper(id), Cores: cores, Cycles: cycles,
			TotalCycles: cycles * 3, Iters: cycles % 97, Requests: cycles >> 7, MaxGamma: uint64(len(hist)),
			AvgGamma: avg, Utilization: util, IsolationCycles: cycles / 2, Slowdown: slowdown}
		if hist != nil {
			r.GammaHist = make([]uint64, len(hist))
			for i, c := range hist {
				r.GammaHist[i] = uint64(c) * cycles
			}
		}
		if len(hist) > 0 {
			r.ContendersHist = []uint64{uint64(hist[0]), cycles}
		}
		for i := 0; i+3 < len(hist); i += 4 {
			r.Trace = append(r.Trace, trace.Event{Port: int(int8(hist[i])) * cores, Kind: bus.Kind(hist[i+1]),
				Ready: cycles + uint64(i), Grant: cycles + uint64(hist[i+2]), Gamma: uint64(hist[i+2]),
				Occupancy: int(hist[i+3]), Addr: uint64(hist[i+3]) << 40})
		}
		enc, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := decodeResultFast(enc); !ok && !bytes.Contains(enc, []byte{'\\'}) {
			t.Fatalf("one-pass reader refused a marshalled row: %s", enc)
		}
		checkDecodeResult(t, enc)
	})
}

// checkDecodeResult checks DecodeResult against json.Unmarshal on data.
func checkDecodeResult(t *testing.T, data []byte) {
	t.Helper()
	in := bytes.Clone(data)
	got, err := DecodeResult(in)
	var want Result
	refErr := json.Unmarshal(data, &want)
	switch {
	case err == nil && refErr != nil:
		t.Fatalf("accepted %q, which json.Unmarshal rejects: %v", data, refErr)
	case err != nil && refErr == nil:
		t.Fatalf("rejected %q, which json.Unmarshal accepts: %v", data, err)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("decoded %q as\n%#v\njson.Unmarshal\n%#v", data, got, want)
	}
	for i := range in {
		in[i] = '#'
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("row changed with the input's bytes: %#v", got)
	}
}

// TestDecodeResultFastPath checks that the one-pass reader, not the
// json.Unmarshal fallback, reads the rows Put records — each shape a
// Result takes, floats in exponent form included — and that it hands
// inputs outside its shape over.
func TestDecodeResultFastPath(t *testing.T) {
	rows := []Result{
		{},
		{Schema: ResultSchema, Platform: "ngmp-ref-wrr", Cores: 4, Cycles: 91234, TotalCycles: 100000, Iters: 20,
			Requests: 640, MaxGamma: 27, AvgGamma: 13.5, Utilization: 0.999999999999, IsolationCycles: 3,
			Slowdown: -2, GammaHist: []uint64{0, 3, 0, 0, 17, 2}, ContendersHist: []uint64{5, 0, 635}},
		{ID: "fig2/delta=9", Cycles: 600, AvgGamma: 1e-07, Utilization: 1e+21, Trace: []trace.Event{
			{Port: 0, Kind: bus.KindLoad, Ready: 10, Grant: 19, Gamma: 9, Occupancy: 3, Addr: 0x1000},
			{Port: 3, Kind: bus.KindResp, Ready: 12, Grant: 22, Gamma: 10, Occupancy: 3},
		}},
		{Platform: "é日本\x7f", AvgGamma: 1.0 / 3, Utilization: 5e-324, Slowdown: math.MinInt64},
	}
	for _, r := range rows {
		enc, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := decodeResultFast(enc)
		if !ok {
			t.Errorf("one-pass reader refused %s", enc)
			continue
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("decoded %s as %#v", enc, got)
		}
	}
	for _, in := range []string{
		``, ` {}`, `{} `, `null`, `{"cycles":1,}`, `{"cycles":1}{}`, `{"cycles":1,"schema":1}`,
		`{"cycles":1,"cycles":2}`, `{"Cycles":1}`, `{"cycles":-1}`, `{"cycles":01}`, `{"cycles":1.0}`,
		`{"cycles":+1}`, `{"cores":1e2}`, `{"avg_gamma":1e400}`, `{"avg_gamma":.5}`, `{"avg_gamma":0x1p-2}`,
		`{"id":"a\"b"}`, `{"id":"a\nb"}`, "{\"id\":\"a\x01b\"}", "{\"id\":\"\xff\"}", `{"gamma_hist":[]}`, `{"gamma_hist":null}`,
		`{"gamma_hist":[1,]}`, `{"trace":[{"kind":256}]}`, `{"trace":[{"port":1,"port":2}]}`, `{"unknown":1}`,
		`{"cycles" :1}`, `{"cycles":1 }`,
	} {
		if r, ok := decodeResultFast([]byte(in)); ok {
			t.Errorf("one-pass reader accepted %q as %#v", in, r)
		}
		checkDecodeResult(t, []byte(in))
	}
}

// TestDecodeResultKeys pins the one-pass reader's key lists to the JSON
// tags of Result and trace.Event, in declaration order: a field added to
// either type must be added to the reader too, or every row carrying it
// falls back to json.Unmarshal.
func TestDecodeResultKeys(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		keys []string
	}{{reflect.TypeOf(Result{}), resultKeys}, {reflect.TypeOf(trace.Event{}), eventKeys}} {
		var tags []string
		for i := 0; i < tc.typ.NumField(); i++ {
			name, _, _ := strings.Cut(tc.typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, name)
		}
		if !reflect.DeepEqual(tags, tc.keys) {
			t.Errorf("%s JSON keys %q, reader keys %q", tc.typ, tags, tc.keys)
		}
	}
}

// TestCanonicalCoversEveryField sets each field of Scenario and of the
// structs it holds, one at a time, and checks the hand-written encoding
// against json.Marshal: a field added to any of them must be added to
// appendCanonical too, or scenarios differing only in it would share an
// address (FuzzJobHash sets only the fields it knows).
func TestCanonicalCoversEveryField(t *testing.T) {
	var setNonZero func(v reflect.Value)
	setNonZero = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.String:
			v.SetString("x")
		case reflect.Int, reflect.Int64:
			v.SetInt(3)
		case reflect.Uint64:
			v.SetUint(3)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
			setNonZero(v.Index(0))
		default:
			t.Fatalf("no non-zero value for a %s field", v.Type())
		}
	}
	st := reflect.TypeOf(Scenario{})
	for i := 0; i < st.NumField(); i++ {
		inner := 1
		if st.Field(i).Type.Kind() == reflect.Struct {
			inner = st.Field(i).Type.NumField()
		}
		for k := 0; k < inner; k++ {
			var j Job
			f := reflect.ValueOf(&j.Scenario).Elem().Field(i)
			if f.Kind() == reflect.Struct {
				f = f.Field(k)
			}
			setNonZero(f)
			if got, want := j.appendCanonical(nil), canonicalJSONReference(j); !bytes.Equal(got, want) {
				t.Errorf("with %s.%d set: canonical bytes\n%s\njson.Marshal\n%s", st.Field(i).Name, k, got, want)
			}
		}
	}
}
