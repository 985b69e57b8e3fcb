package report

import (
	"fmt"

	"rrbus/internal/stats"
)

// GammaRow is one δ→γ pair with the simulator measurement and the Eq. 2
// prediction (Figs. 3 and 4).
type GammaRow struct {
	Delta         int
	GammaSim      int
	GammaAnalytic int
}

// gammaTable builds the typed δ→γ table block.
func gammaTable(rows []GammaRow) Table {
	t := Table{
		Name:   "gamma",
		Header: "delta  gamma(sim)  gamma(eq2)",
		Columns: []Column{
			{Key: "delta", Label: "delta", Format: "%5d"},
			{Key: "gamma_sim", Label: "gamma(sim)", Format: "  %10d"},
			{Key: "gamma_eq2", Label: "gamma(eq2)", Format: "  %10d"},
		},
	}
	for _, r := range rows {
		row := Row{Cells: []Value{IntV(r.Delta), IntV(r.GammaSim), IntV(r.GammaAnalytic)}}
		if r.GammaSim != r.GammaAnalytic {
			row.Note = "  <- mismatch"
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// TimelineFig is one rendered bus timeline (Figs. 2 and 5): the scua's
// steady-state request at injection time δ and the Gantt chart around it.
type TimelineFig struct {
	K        int
	Delta    int
	Gamma    int
	Timeline string
}

// Fig6aData is the Fig. 6(a) histogram pair: how many contenders are
// ready when the scua in core 0 submits a bus request, for real-ish EEMBC
// workloads versus four rsk.
type Fig6aData struct {
	// EEMBCFrac[i] is the average fraction of scua requests finding i
	// ready contenders across the random workloads (dark bars).
	EEMBCFrac []float64
	// RSKFrac[i] is the same for the 4×rsk workload (light bars).
	RSKFrac []float64
	// WorkloadNames lists the random task sets used ("a2time+canrdr+...").
	WorkloadNames []string
}

// table builds the side-by-side ready-contender table block.
func (r *Fig6aData) table() Table {
	t := Table{
		Name:   "ready-contenders",
		Header: "ready-contenders  EEMBC-workloads  4xRSK",
		Columns: []Column{
			{Key: "ready_contenders", Label: "ready-contenders", Format: "%16d"},
			{Key: "eembc_pct", Label: "EEMBC-workloads", Format: "  %14.1f%%"},
			{Key: "rsk_pct", Label: "4xRSK", Format: "  %5.1f%%"},
		},
	}
	for i := range r.EEMBCFrac {
		t.Rows = append(t.Rows, Row{Cells: []Value{
			IntV(i), FloatV(r.EEMBCFrac[i] * 100), FloatV(r.RSKFrac[i] * 100),
		}})
	}
	return t
}

// Fig6bData is the Fig. 6(b) contention-delay histogram for one
// architecture.
type Fig6bData struct {
	Arch string
	// Hist is the per-request γ histogram of the rsk scua.
	Hist *stats.Hist
	// UBDm is the largest observed delay (the naive measured bound).
	UBDm int
	// ModeGamma is the dominant delay and ModeFrac its share (the paper
	// reports 98%).
	ModeGamma int
	ModeFrac  float64
	// ActualUBD is Eq. 1 ground truth.
	ActualUBD int
	// SimCycles is the full simulated length of the run (warmup +
	// measurement window); the histogram block carries it.
	SimCycles uint64
	// counts is the dense γ histogram the block encoding carries.
	counts []uint64
}

// histogram builds the typed distribution block.
func (r Fig6bData) histogram() Histogram {
	counts := r.counts
	if counts == nil && r.Hist != nil {
		// Hand-built rows (tests): densify the sparse histogram.
		if max, ok := r.Hist.Max(); ok {
			counts = make([]uint64, max+1)
			for _, v := range r.Hist.Values() {
				counts[v] = r.Hist.Count(v)
			}
		}
	}
	return Histogram{
		Arch:      r.Arch,
		UBDm:      r.UBDm,
		ActualUBD: r.ActualUBD,
		ModeGamma: r.ModeGamma,
		ModeFrac:  r.ModeFrac,
		SimCycles: r.SimCycles,
		Counts:    counts,
	}
}

// SweepPoint is one k of a Fig. 7 sweep.
type SweepPoint struct {
	K int
	// Slowdown is ExecTime_contended - ExecTime_isolation in cycles.
	Slowdown int64
	// Utilization is the contended run's bus utilization.
	Utilization float64
}

// PeaksOf returns the k positions of strict interior local maxima of the
// slowdown (edges are ambiguous).
func PeaksOf(pts []SweepPoint) []int {
	var out []int
	for i := 1; i < len(pts)-1; i++ {
		cur := pts[i].Slowdown
		if pts[i-1].Slowdown < cur && pts[i+1].Slowdown < cur {
			out = append(out, pts[i].K)
		}
	}
	return out
}

// sweepSeries builds the single-sweep series block (generic Fig. 7).
func sweepSeries(pts []SweepPoint) Series {
	s := Series{
		Name:    "slowdown-sweep",
		Header:  "  k   slowdown   util",
		XKey:    "k",
		BarLine: 0,
		Lines: []SeriesLine{
			{Key: "slowdown", Format: "  %9d"},
			{Key: "util_pct", Format: "  %4.1f%%"},
		},
	}
	for _, p := range pts {
		s.X = append(s.X, p.K)
		s.Lines[0].Values = append(s.Lines[0].Values, Int64(p.Slowdown))
		s.Lines[1].Values = append(s.Lines[1].Values, FloatV(p.Utilization*100))
	}
	return s
}

// Fig7aData is the Fig. 7(a) pair of load sweeps.
type Fig7aData struct {
	Ref, Var []SweepPoint
	// RefPeaks and VarPeaks are the k positions of the saw-tooth maxima
	// (the paper: 27/54 for ref, 24/51 for var, both period 27).
	RefPeaks, VarPeaks []int
}

// series builds the two-architecture series block with structured peaks.
func (r *Fig7aData) series() Series {
	s := Series{
		Name:    "fig7a",
		Header:  "  k  slowdown(ref)  slowdown(var)",
		XKey:    "k",
		BarLine: 0,
		Lines: []SeriesLine{
			{Key: "ref", Format: "  %13d"},
			{Key: "var", Format: "  %13d"},
		},
		Footer: []string{fmt.Sprintf("ref peaks at k=%v, var peaks at k=%v", r.RefPeaks, r.VarPeaks)},
		Peaks:  map[string][]int{"ref": r.RefPeaks, "var": r.VarPeaks},
	}
	for i := range r.Ref {
		s.X = append(s.X, r.Ref[i].K)
		s.Lines[0].Values = append(s.Lines[0].Values, Int64(r.Ref[i].Slowdown))
		s.Lines[1].Values = append(s.Lines[1].Values, Int64(r.Var[i].Slowdown))
	}
	return s
}

// Fig7bData is the Fig. 7(b) store sweep.
type Fig7bData struct {
	Points []SweepPoint
	// ZeroFromK is the first k from which the slowdown stays zero: the
	// store buffer hides all contention beyond it (paper: the first
	// period spans k ∈ [1..28]; in this simulator the tooth ends at
	// ubd + lbus - 1 because a saturated buffer frees one entry per full
	// round — see DESIGN.md).
	ZeroFromK int
}

// series builds the store-sweep series block with the structured
// crossover point.
func (r *Fig7bData) series() Series {
	zero := r.ZeroFromK
	s := Series{
		Name:      "fig7b",
		Header:    "  k  slowdown(store)",
		XKey:      "k",
		BarLine:   0,
		Lines:     []SeriesLine{{Key: "store", Format: "  %15d"}},
		Footer:    []string{fmt.Sprintf("slowdown identically zero from k=%d (store buffer hides contention)", r.ZeroFromK)},
		ZeroFromK: &zero,
	}
	for _, p := range r.Points {
		s.X = append(s.X, p.K)
		s.Lines[0].Values = append(s.Lines[0].Values, Int64(p.Slowdown))
	}
	return s
}

// ArbiterRow reports how the methodology behaves under one arbitration
// policy — the E9a ablation: the Eq. 3 period→ubd mapping is specific to
// round-robin.
type ArbiterRow struct {
	Arbiter string
	// ActualUBD is Eq. 1 (meaningful for RR only).
	ActualUBD int
	// DerivedUBDm is what the methodology reports; Err is the failure
	// reason when it correctly refuses.
	DerivedUBDm int
	PeriodK     int
	Err         string
	// Note interprets the outcome.
	Note string
}

// arbitersTable builds the arbiter-ablation table block.
func arbitersTable(rows []ArbiterRow) Table {
	t := Table{
		Name:   "abl-arb",
		Header: "arbiter   eq1-ubd  derived  periodK  outcome",
		Columns: []Column{
			{Key: "arbiter", Label: "arbiter", Format: "%-9s"},
			{Key: "eq1_ubd", Label: "eq1-ubd", Format: " %7d"},
			{Key: "derived", Label: "derived", Format: "  %7d"},
			{Key: "period_k", Label: "periodK", Format: "  %7d"},
			{Key: "outcome", Label: "outcome", Format: "  %s"},
		},
	}
	for _, r := range rows {
		out := r.Note
		if r.Err != "" {
			out = "refused: " + r.Err
		}
		t.Rows = append(t.Rows, Row{Cells: []Value{
			StringV(r.Arbiter), IntV(r.ActualUBD), IntV(r.DerivedUBDm), IntV(r.PeriodK), StringV(out),
		}})
	}
	return t
}

// DeltaNopRow reports the E9b ablation: platforms where a nop costs more
// than one cycle sample the saw-tooth sparsely; period-based reading
// aliases, the model fit does not.
type DeltaNopRow struct {
	NopLatency  int
	ActualUBD   int
	DeltaNop    float64
	DerivedUBDm int
	// PeriodTimesDnop is the naive period×δnop reading that aliases when
	// δnop does not divide ubd.
	PeriodTimesDnop int
	Err             string
}

// deltaNopTable builds the δnop-ablation table block.
func deltaNopTable(rows []DeltaNopRow) Table {
	t := Table{
		Name:   "abl-dnop",
		Header: "nop-lat  actual-ubd  δnop   derived  period×δnop",
		Columns: []Column{
			{Key: "nop_latency", Label: "nop-lat", Format: "%7d"},
			{Key: "actual_ubd", Label: "actual-ubd", Format: "  %10d"},
			{Key: "delta_nop", Label: "δnop", Format: "  %5.2f"},
			{Key: "derived", Label: "derived", Format: "  %7d"},
			{Key: "period_x_dnop", Label: "period×δnop", Format: "  %11d"},
		},
	}
	for _, r := range rows {
		row := Row{Cells: []Value{
			IntV(r.NopLatency), IntV(r.ActualUBD), FloatV(r.DeltaNop), IntV(r.DerivedUBDm), IntV(r.PeriodTimesDnop),
		}}
		if r.Err != "" {
			row.Note = "  ERR: " + r.Err
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ScalingRow reports the E9c ablation: the methodology recovers Eq. 1
// across platform geometries.
type ScalingRow struct {
	Cores       int
	LBus        int
	ActualUBD   int
	DerivedUBDm int
	Err         string
}

// scalingTable builds the geometry-ablation table block.
func scalingTable(rows []ScalingRow) Table {
	t := Table{
		Name:   "abl-scaling",
		Header: "cores  lbus  actual-ubd  derived-ubdm",
		Columns: []Column{
			{Key: "cores", Label: "cores", Format: "%5d"},
			{Key: "lbus", Label: "lbus", Format: "  %4d"},
			{Key: "actual_ubd", Label: "actual-ubd", Format: "  %10d"},
			{Key: "derived_ubdm", Label: "derived-ubdm", Format: "  %12d"},
		},
	}
	for _, r := range rows {
		row := Row{Cells: []Value{IntV(r.Cores), IntV(r.LBus), IntV(r.ActualUBD), IntV(r.DerivedUBDm)}}
		if r.DerivedUBDm != r.ActualUBD {
			row.Note = "  <- mismatch"
		}
		if r.Err != "" {
			row.Note += "  ERR: " + r.Err
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
