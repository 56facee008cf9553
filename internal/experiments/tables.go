package experiments

import (
	"fmt"
	"strings"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/vm"
	"accentmig/internal/workload"
)

// Row41 is one Table 4-1 row: address-space composition in bytes.
type Row41 struct {
	Kind     workload.Kind
	Real     uint64
	RealZ    uint64
	Total    uint64
	PctRealZ float64
}

// Table41For returns the published characterization of each kind. Table
// 4-1 is an input of this reproduction, not a measurement (DESIGN.md
// §1): workload.Build refuses any install whose Real, RealZero or Total
// differs from these rows, so every trial checks them and printing them
// simulates nothing.
func Table41For(kinds []workload.Kind) []Row41 {
	var rows []Row41
	for _, k := range kinds {
		p := workload.PaperNumbers(k)
		realZ := p.TotalBytes - p.RealBytes
		rows = append(rows, Row41{
			Kind:     k,
			Real:     p.RealBytes,
			RealZ:    realZ,
			Total:    p.TotalBytes,
			PctRealZ: 100 * float64(realZ) / float64(p.TotalBytes),
		})
	}
	return rows
}

// Table41 is Table41For over every kind, the form bench/workloads.go calls.
func Table41(Config) ([]Row41, error) { return Table41For(workload.Kinds()), nil }

// FormatTable41 renders the rows as the paper prints them.
func FormatTable41(rows []Row41) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4-1: Representative Address Space Sizes in Bytes\n")
	fmt.Fprintf(&b, "%-10s %13s %15s %15s %9s\n", "", "Real", "RealZ", "Total", "% RealZ")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %13d %15d %15d %9.1f\n", r.Kind, r.Real, r.RealZ, r.Total, r.PctRealZ)
	}
	return b.String()
}

// tableCells returns the prefetch-0 grid cells of each kind under each
// strategy, kind-major, from the default engine: the tables read the
// same memoized cells the figures do.
func tableCells(cfg Config, kinds []workload.Kind, strats ...core.Strategy) ([]*TrialResult, error) {
	var keys []GridKey
	for _, k := range kinds {
		for _, s := range strats {
			keys = append(keys, GridKey{k, s, 0})
		}
	}
	return Default.Trials(cfg, keys)
}

// Row42 is one Table 4-2 row: resident sets.
type Row42 struct {
	Kind     workload.Kind
	RSSize   uint64
	PctReal  float64
	PctTotal float64
}

// Table42For measures resident sets at migration time: each
// representative's resident-set (prefetch 0) grid cell reports what
// excision actually collapsed as resident, the same quantity the
// paper's instrumented migrations report. The transfer ends before
// insertion starts the process, so its remote run cannot reach the
// count. The percentages are of the published Real and Total, which
// workload.Build holds every representative to.
func Table42For(cfg Config, kinds []workload.Kind) ([]Row42, error) {
	trs, err := tableCells(cfg, kinds, core.ResidentSet)
	if err != nil {
		return nil, err
	}
	pageSize := cfg.Machine.PageSize
	if pageSize == 0 {
		pageSize = vm.DefaultPageSize
	}
	var rows []Row42
	for i, k := range kinds {
		rs := uint64(trs[i].Report.ResidentPages) * uint64(pageSize)
		paper := workload.PaperNumbers(k)
		rows = append(rows, Row42{
			Kind:     k,
			RSSize:   rs,
			PctReal:  100 * float64(rs) / float64(paper.RealBytes),
			PctTotal: 100 * float64(rs) / float64(paper.TotalBytes),
		})
	}
	return rows, nil
}

// Table42 is Table42For over every kind, the form bench/workloads.go calls.
func Table42(cfg Config) ([]Row42, error) { return Table42For(cfg, workload.Kinds()) }

// FormatTable42 renders Table 4-2.
func FormatTable42(rows []Row42) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4-2: Representative Resident Sets\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s\n", "", "RS Size", "% of Real", "% of Total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10d %10.1f %10.3f\n", r.Kind, r.RSSize, r.PctReal, r.PctTotal)
	}
	return b.String()
}

// Row43 is one Table 4-3 row: percent of address space accessed under
// the lazy strategies (pure-copy is 100% of Real by definition).
type Row43 struct {
	Kind     workload.Kind
	IOUReal  float64 // % of RealMem shipped under pure-IOU
	IOUTotal float64
	RSReal   float64 // % of RealMem shipped under RS
	RSTotal  float64
}

// Table43 reads the IOU and RS grid cells (no prefetch) and measures
// what fraction of each space actually moved.
func Table43(cfg Config, kinds []workload.Kind) ([]Row43, error) {
	trs, err := tableCells(cfg, kinds, core.PureIOU, core.ResidentSet)
	if err != nil {
		return nil, err
	}
	var rows []Row43
	for i, k := range kinds {
		iou, rs := trs[2*i], trs[2*i+1]
		rows = append(rows, Row43{
			Kind:     k,
			IOUReal:  iou.TransferredRealPct(),
			IOUTotal: iou.TransferredTotalPct(),
			RSReal:   rs.TransferredRealPct(),
			RSTotal:  rs.TransferredTotalPct(),
		})
	}
	return rows, nil
}

// FormatTable43 renders Table 4-3.
func FormatTable43(rows []Row43) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4-3: Percent of Address Space Accessed\n")
	fmt.Fprintf(&b, "%-10s %18s %18s\n", "", "IOU", "RS")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8.1f [%7.3f] %8.1f [%7.3f]\n",
			r.Kind, r.IOUReal, r.IOUTotal, r.RSReal, r.RSTotal)
	}
	return b.String()
}

// Row44 is one Table 4-4 row: excision timing breakdown, plus the
// §4.3.1 insertion time and the resulting process downtime.
type Row44 struct {
	Kind    workload.Kind
	AMap    time.Duration
	RIMAS   time.Duration
	Overall time.Duration
	Insert  time.Duration
	// Down is the measured downtime of the pure-copy migration:
	// excise-freeze to the first instruction executed at the
	// destination.
	Down time.Duration
}

// Table44For reads each representative's pure-copy (prefetch 0) grid
// cell: the excision breakdown is strategy-independent, and pure-copy
// makes insertion cover arrived data, as in the paper's testbed. The
// excision and insertion times are stamped before insertion starts the
// process, and the downtime runs to its first instruction at the
// destination.
func Table44For(cfg Config, kinds []workload.Kind) ([]Row44, error) {
	trs, err := tableCells(cfg, kinds, core.PureCopy)
	if err != nil {
		return nil, err
	}
	var rows []Row44
	for i, k := range kinds {
		rep := trs[i].Report
		rows = append(rows, Row44{
			Kind:    k,
			AMap:    rep.Excise.AMap,
			RIMAS:   rep.Excise.RIMAS,
			Overall: rep.Excise.Overall,
			Insert:  rep.Insert.Overall,
			Down:    trs[i].Downtime,
		})
	}
	return rows, nil
}

// Table44 is Table44For over every kind, the form bench/workloads.go calls.
func Table44(cfg Config) ([]Row44, error) { return Table44For(cfg, workload.Kinds()) }

// FormatTable44 renders Table 4-4 (with the insertion column from
// §4.3.1 appended).
func FormatTable44(rows []Row44) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4-4: Process Excision Times in Seconds (+ §4.3.1 insertion, downtime)\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %8s %8s\n", "", "AMap", "RIMAS", "Overall", "Insert", "Down")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			r.Kind, r.AMap.Seconds(), r.RIMAS.Seconds(), r.Overall.Seconds(), r.Insert.Seconds(), r.Down.Seconds())
	}
	return b.String()
}

// Row45 is one Table 4-5 row: RIMAS transfer times per strategy, plus
// the ≈1 s Core message time for reference.
type Row45 struct {
	Kind workload.Kind
	IOU  time.Duration
	RS   time.Duration
	Copy time.Duration
	Core time.Duration
}

// Table45 measures address-space transfer times under all three
// strategies from the prefetch-0 grid cells. The transfer ends before
// insertion starts the process, so remote execution cannot overlap it.
func Table45(cfg Config, kinds []workload.Kind) ([]Row45, error) {
	strats := core.Strategies()
	trs, err := tableCells(cfg, kinds, strats...)
	if err != nil {
		return nil, err
	}
	var rows []Row45
	for i, k := range kinds {
		row := Row45{Kind: k}
		for j, strat := range strats {
			rep := trs[i*len(strats)+j].Report
			switch strat {
			case core.PureIOU:
				row.IOU = rep.RIMASTransfer
			case core.ResidentSet:
				row.RS = rep.RIMASTransfer
			case core.PureCopy:
				row.Copy = rep.RIMASTransfer
			}
			row.Core = rep.CoreTransfer
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable45 renders Table 4-5.
func FormatTable45(rows []Row45) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4-5: Address Space Transfer Times in Seconds (+ Core msg)\n")
	fmt.Fprintf(&b, "%-10s %9s %8s %8s %8s\n", "", "Pure-IOU", "RS", "Copy", "Core")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %9.2f %8.1f %8.1f %8.2f\n",
			r.Kind, r.IOU.Seconds(), r.RS.Seconds(), r.Copy.Seconds(), r.Core.Seconds())
	}
	return b.String()
}
