package report

// SummaryRow is one line of the E8 headline table: the paper's §5 numbers
// condensed — for an architecture and access type, the methodology's
// derived bound versus the naive det/nr estimate versus Eq. 1 ground truth.
type SummaryRow struct {
	Arch      string
	Type      string
	ActualUBD int
	// DerivedUBDm is the methodology's estimate (0 when derivation
	// failed; Err holds the reason).
	DerivedUBDm int
	// NaiveUBDm is det/nr for the plain rsk.
	NaiveUBDm int
	// PeriodK, DeltaNop, Confidence summarize the derivation.
	PeriodK    int
	DeltaNop   float64
	Confidence float64
	Err        string
}

// summaryTable builds the typed headline table block.
func summaryTable(rows []SummaryRow) Table {
	t := Table{
		Name:   "summary",
		Header: "arch       type   actual-ubd  derived-ubdm  naive-ubdm  periodK  δnop   confidence",
		Columns: []Column{
			{Key: "arch", Label: "arch", Format: "%-10s"},
			{Key: "type", Label: "type", Format: " %-6s"},
			{Key: "actual_ubd", Label: "actual-ubd", Format: " %10d"},
			{Key: "derived_ubdm", Label: "derived-ubdm", Format: "  %12d"},
			{Key: "naive_ubdm", Label: "naive-ubdm", Format: "  %10d"},
			{Key: "period_k", Label: "periodK", Format: "  %7d"},
			{Key: "delta_nop", Label: "δnop", Format: "  %5.2f"},
			{Key: "confidence", Label: "confidence", Format: "  %10.2f"},
		},
	}
	for _, r := range rows {
		row := Row{Cells: []Value{
			StringV(r.Arch), StringV(r.Type), IntV(r.ActualUBD),
			IntV(r.DerivedUBDm), IntV(r.NaiveUBDm), IntV(r.PeriodK),
			FloatV(r.DeltaNop), FloatV(r.Confidence),
		}}
		if r.Err != "" {
			row.Note = "  ERR: " + r.Err
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// SummaryDocument builds the headline table as a complete document
// (heading included) — what rrbus-figures -fig table renders through
// any backend. The rows come from the facade's in-process derivation
// (rrbus.Summary); this package only lays them out.
func SummaryDocument(rows []SummaryRow) *Document {
	d := &Document{Title: "Headline summary"}
	return d.Add(
		Heading{Level: 1, Text: "Headline summary: derived vs naive vs actual"},
		summaryTable(rows),
		Spacer{},
	)
}
