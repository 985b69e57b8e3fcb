package report

import (
	"fmt"
	"strings"

	"rrbus/internal/scenario"
)

// ETBData is the paper's §4.3 check read off an etb plan's rows: the
// task's execution-time bound, padded from the isolation row, and one
// check of the bound per contended row.
type ETBData struct {
	// Task is the task spec; Platform the materialized platform name and
	// EqOne its Eq. 1 ubd.
	Task     string
	Platform string
	EqOne    int
	// Isolation and Requests are the task's execution time alone and its
	// bus-request count nr (job 0's row).
	Isolation uint64
	Requests  uint64
	// UBDm is the per-request bound the plan pads with; ETB is
	// Isolation + Requests·UBDm.
	UBDm int
	ETB  uint64
	// Checks are the contended rows in job order.
	Checks []ETBCheck
}

// ETBCheck is one contended run checked against the bound.
type ETBCheck struct {
	// Scenario names the run by its job ID's last segment ("rsk",
	// "set0").
	Scenario string
	// Contenders are the co-running task specs.
	Contenders []string
	// Observed is the task's measured execution time under contention.
	Observed uint64
	// Holds is Observed ≤ ETB; Headroom is ETB/Observed − 1 (negative
	// when the bound is violated).
	Holds    bool
	Headroom float64
}

// PadShare is the fraction of the bound that is contention padding.
func (d *ETBData) PadShare() float64 {
	if d.ETB == 0 {
		return 0
	}
	return float64(d.ETB-d.Isolation) / float64(d.ETB)
}

// ETBFrom rebuilds the §4.3 check from the etb generator's recorded
// results: jobs[0] the task alone, jobs[1:] the contended runs. The ubdm
// comes from the jobs' scenario name, so the same rows check any ubdm.
func ETBFrom(jobs []scenario.Job, results []scenario.Result) (*ETBData, error) {
	if len(jobs) < 2 || len(results) != len(jobs) {
		return nil, fmt.Errorf("report: etb needs the isolation row plus at least one contended row, have %d results for %d jobs", len(results), len(jobs))
	}
	if len(jobs[0].Scenario.Workload.Contenders) != 0 {
		return nil, fmt.Errorf("report: job %q is not the isolation run", jobs[0].ID)
	}
	ubdm, err := scenario.ETBUBDm(jobs[0])
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	cfg, err := buildCfg(jobs[0])
	if err != nil {
		return nil, err
	}
	iso := results[0]
	d := &ETBData{
		Task:      jobs[0].Scenario.Workload.Scua,
		Platform:  cfg.Name,
		EqOne:     cfg.UBD(),
		Isolation: iso.Cycles,
		Requests:  iso.Requests,
		UBDm:      ubdm,
		ETB:       iso.Cycles + iso.Requests*uint64(ubdm),
	}
	for i, j := range jobs[1:] {
		r := results[i+1]
		c := ETBCheck{
			Scenario:   j.ID[strings.LastIndex(j.ID, "/")+1:],
			Contenders: j.Scenario.Workload.Contenders,
			Observed:   r.Cycles,
			Holds:      r.Cycles <= d.ETB,
		}
		if r.Cycles > 0 {
			c.Headroom = float64(d.ETB)/float64(r.Cycles) - 1
		}
		d.Checks = append(d.Checks, c)
	}
	return d, nil
}

// ETB renders the etb generator's §4.3 check: the bound, then each
// contended run with its verdict and headroom, then the worst case.
func ETB(jobs []scenario.Job, results []scenario.Result) (*Document, error) {
	data, err := ETBFrom(jobs, results)
	if err != nil {
		return nil, err
	}
	bound := Table{
		Name:   "etb-bound",
		Header: "task            isolation      nr  ubdm        ETB   pad%",
		Columns: []Column{
			{Key: "task", Label: "task", Format: "%-14s"},
			{Key: "isolation", Label: "isolation", Format: "  %9d"},
			{Key: "nr", Label: "nr", Format: "  %6d"},
			{Key: "ubdm", Label: "ubdm", Format: "  %4d"},
			{Key: "etb", Label: "ETB", Format: "  %9d"},
			{Key: "pad_pct", Label: "pad%", Format: "  %5.1f"},
		},
		Rows: []Row{{Cells: []Value{
			StringV(data.Task), Int64(int64(data.Isolation)), Int64(int64(data.Requests)),
			IntV(data.UBDm), Int64(int64(data.ETB)), FloatV(data.PadShare() * 100),
		}}},
	}
	checks := Table{
		Name:   "etb-checks",
		Header: "scenario  contenders               observed        ETB  verdict   headroom%",
		Columns: []Column{
			{Key: "scenario", Label: "scenario", Format: "%-8s"},
			{Key: "contenders", Label: "contenders", Format: "  %-22s"},
			{Key: "observed", Label: "observed", Format: "  %9d"},
			{Key: "etb", Label: "ETB", Format: "  %9d"},
			{Key: "verdict", Label: "verdict", Format: "  %-8s"},
			{Key: "headroom_pct", Label: "headroom%", Format: "  %9.1f"},
		},
	}
	worst := data.Checks[0]
	violated := 0
	for _, c := range data.Checks {
		verdict := "HOLDS"
		if !c.Holds {
			verdict = "VIOLATED"
			violated++
		}
		if c.Observed > worst.Observed {
			worst = c
		}
		checks.Rows = append(checks.Rows, Row{Cells: []Value{
			StringV(c.Scenario), StringV(contenderLabel(c.Contenders)), Int64(int64(c.Observed)),
			Int64(int64(data.ETB)), StringV(verdict), FloatV(c.Headroom * 100),
		}})
	}
	verdict := fmt.Sprintf("worst observed %d ≤ ETB %d: the bound holds in all %d contended runs (%.1f%% headroom)",
		worst.Observed, data.ETB, len(data.Checks), worst.Headroom*100)
	if violated > 0 {
		verdict = fmt.Sprintf("worst observed %d > ETB %d: the bound is VIOLATED in %d of %d contended runs",
			worst.Observed, data.ETB, violated, len(data.Checks))
	}
	d := &Document{Title: "ETB"}
	return d.Add(
		Heading{Level: 1, Text: fmt.Sprintf("ETB = isolation + nr·ubdm (§4.3) of %s on %s, ubdm=%d (Eq. 1 ubd=%d)",
			data.Task, data.Platform, data.UBDm, data.EqOne)},
		bound,
		Spacer{},
		checks,
		Spacer{},
		Paragraph{Text: verdict},
		Spacer{},
	), nil
}

// contenderLabel names a contender list: "3×rsk:load" for copies of one
// task, the specs joined by "+" otherwise.
func contenderLabel(specs []string) string {
	if len(specs) == 0 {
		return "-"
	}
	for _, s := range specs[1:] {
		if s != specs[0] {
			return strings.Join(specs, "+")
		}
	}
	return fmt.Sprintf("%d×%s", len(specs), specs[0])
}
