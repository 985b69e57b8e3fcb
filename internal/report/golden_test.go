package report_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rrbus/internal/report"
	"rrbus/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// goldenCases is one cheap parameterization per generator with a figure
// renderer plus the generic results-table fallback ("mix" has no figure
// renderer). The golden bytes of all but etb were recorded from the
// pre-Document renderers, so these cases pin the redesign's core
// invariant: Document + TextBackend reproduces the legacy text byte for
// byte.
var goldenCases = []struct {
	name   string
	gen    string
	params scenario.Params
}{
	{"fig2", "fig2", nil},
	{"fig3", "fig3", scenario.Params{"max_delta": 7}},
	{"fig4", "fig4", scenario.Params{"arch": "toy", "max_delta": 12}},
	{"fig5", "fig5", scenario.Params{"ks": []int{1, 6}}},
	{"fig6a", "fig6a", scenario.Params{"arch": "toy", "count": 2, "seed": 1}},
	{"fig6b", "fig6b", scenario.Params{"archs": []string{"toy"}}},
	{"fig7", "fig7", scenario.Params{"arch": "toy", "kmax": 8, "iters": 5}},
	{"fig7a", "fig7a", scenario.Params{"kmax": 12, "iters": 5}},
	{"fig7b", "fig7b", scenario.Params{"arch": "toy", "kmax": 10, "iters": 5}},
	{"derive", "derive", scenario.Params{"arch": "toy", "kmax": 20}},
	{"abl-arb", "abl-arb", scenario.Params{"arch": "toy", "kmax": 20}},
	{"abl-dnop", "abl-dnop", scenario.Params{"arch": "toy", "max_nop": 2, "kmax": 30}},
	{"abl-scaling", "abl-scaling", scenario.Params{"cores": []int{2}, "l2hits": []int{1}}},
	// Padding with a ubdm below Eq. 1's 27 pins both verdicts.
	{"etb", "etb", scenario.Params{"task": "tblook", "seed": 7, "count": 2, "ubdm": 10}},
	{"results-table", "mix", scenario.Params{"arch": "toy", "count": 2, "kmax": 4}},
}

// goldenRun expands and runs a golden case once per test binary
// invocation (several tests verify different backends over the same
// recorded results).
var goldenResults = map[string]struct {
	jobs    []scenario.Job
	results []scenario.Result
}{}

func goldenInputs(t *testing.T, gen string, params scenario.Params) ([]scenario.Job, []scenario.Result) {
	t.Helper()
	if got, ok := goldenResults[gen]; ok {
		return got.jobs, got.results
	}
	jobs, results := runGenerator(t, gen, params)
	goldenResults[gen] = struct {
		jobs    []scenario.Job
		results []scenario.Result
	}{jobs, results}
	return jobs, results
}

// TestGoldenTextByteIdentity pins the text rendering of every generator
// (and the generic results-table fallback) to the committed golden bytes
// recorded before the Document redesign.
func TestGoldenTextByteIdentity(t *testing.T) {
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			jobs, results := goldenInputs(t, tc.gen, tc.params)
			got, err := report.Render(tc.gen, jobs, results)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to record): %v", err)
			}
			if got != string(want) {
				t.Errorf("text output drifted from the pre-redesign golden\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}
