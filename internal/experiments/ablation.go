package experiments

import (
	"fmt"
	"strings"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/netlink"
	"accentmig/internal/netmsg"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
)

// AblationRow is one point of a design-choice sweep.
type AblationRow struct {
	Label      string
	Transfer   time.Duration // RIMAS transfer
	RemoteExec time.Duration
	EndToEnd   time.Duration
	Bytes      uint64
}

// FormatAblation renders a sweep.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %12s\n", "", "transfer", "exec", "end2end", "bytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %9.2fs %9.2fs %9.2fs %12d\n",
			r.Label, r.Transfer.Seconds(), r.RemoteExec.Seconds(), r.EndToEnd.Seconds(), r.Bytes)
	}
	return b.String()
}

// syntheticTrial migrates a synthetic process — realPages of data, a
// sequential post-phase touching touchedPages — under the given
// configuration and strategy. Unlike the representatives, it works at
// any page size and network speed, which is what the ablations need.
func syntheticTrial(cfg Config, realPages, touchedPages int, strat core.Strategy, prefetch int) (*TrialResult, error) {
	tb := NewTestbed(cfg)
	defer tb.K.Close()
	pr, err := tb.dataProcess("synthetic", 2, realPages, func(i int, page []byte) {
		for j := range page {
			page[j] = byte(i + j)
		}
	})
	if err != nil {
		return nil, err
	}
	ps := uint64(tb.Src.PageSize())
	var res []vm.Addr
	for i := 0; i < realPages/4; i++ {
		res = append(res, vm.Addr(uint64(i)*ps))
	}
	if err := tb.Src.MakeResident(pr, res); err != nil {
		return nil, err
	}
	pr.Program = &trace.Program{Ops: []trace.Op{
		trace.MigratePoint{},
		trace.SeqScan{Start: 0, Bytes: uint64(touchedPages) * ps, PerTouch: 10 * time.Millisecond},
		trace.Compute{D: time.Second},
	}}
	m := tb.migrate(cfg, pr, core.Options{Strategy: strat, Prefetch: prefetch, WaitMigratePoint: true})
	if err := m.remoteErr(pr.Name); err != nil {
		return nil, err
	}
	tr := &TrialResult{Strategy: strat, Prefetch: prefetch, Report: m.rep}
	tr.RemoteExec = m.end - tr.Report.InsertDoneAt
	tr.EndToEnd = tr.Report.RIMASTransfer + tr.RemoteExec
	tr.BytesTotal = tb.Rec.BytesTotal()
	return tr, nil
}

func ablate(tr *TrialResult, label string) AblationRow {
	return AblationRow{
		Label:      label,
		Transfer:   tr.Report.RIMASTransfer,
		RemoteExec: tr.RemoteExec,
		EndToEnd:   tr.EndToEnd,
		Bytes:      tr.BytesTotal,
	}
}

// PageSizeAblation sweeps the VM page size: smaller pages mean more,
// cheaper faults; larger pages amortize the fault round trip but haul
// more dead weight per miss.
func PageSizeAblation(pageSizes []int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, ps := range pageSizes {
		cfg := Config{}
		cfg.Machine.PageSize = ps
		// Keep the byte volume constant across page sizes.
		realPages := 256 * 1024 / ps
		tr, err := syntheticTrial(cfg, realPages, realPages/4, core.PureIOU, 1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ablate(tr, fmt.Sprintf("page=%dB", ps)))
	}
	return rows, nil
}

// BandwidthAblation sweeps the link rate to find where pure-copy
// overtakes copy-on-reference: as the wire gets fast, shipping
// everything up front stops being the bottleneck while the per-fault
// round trip cost remains.
func BandwidthAblation(rates []int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, bps := range rates {
		for _, strat := range []core.Strategy{core.PureIOU, core.PureCopy} {
			cfg := Config{}
			cfg.Link = netlink.Config{BytesPerSecond: bps}
			tr, err := syntheticTrial(cfg, 512, 128, strat, 0)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ablate(tr, fmt.Sprintf("%dKB/s/%s", bps/1024, strat)))
		}
	}
	return rows, nil
}

// IOUCacheAblation compares normal NetMsgServer IOU caching against a
// server that refuses to cache — without a backer, lazy shipment
// degenerates into physical copy at migration time, demonstrating that
// the cache is the mechanism that makes IOUs possible at all (§2.4).
func IOUCacheAblation() ([]AblationRow, error) {
	var rows []AblationRow
	for _, disable := range []bool{false, true} {
		cfg := Config{}
		cfg.Machine.Net = netmsg.Config{DisableIOUCache: disable}
		tr, err := syntheticTrial(cfg, 512, 128, core.PureIOU, 0)
		if err != nil {
			return nil, err
		}
		label := "cache-on"
		if disable {
			label = "cache-off"
		}
		rows = append(rows, ablate(tr, label))
	}
	return rows, nil
}

// CopyThresholdAblation sweeps the IPC copy/map threshold (§2.1): a
// huge threshold forces physical copies of large messages inside each
// machine, inflating migration-time costs.
func CopyThresholdAblation(thresholds []int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, th := range thresholds {
		cfg := Config{}
		cfg.Machine.IPC.CopyThreshold = th
		tr, err := syntheticTrial(cfg, 512, 128, core.PureCopy, 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ablate(tr, fmt.Sprintf("thresh=%dB", th)))
	}
	return rows, nil
}

// PrefetchAblation sweeps prefetch on a sequential synthetic workload.
func PrefetchAblation(values []int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, pf := range values {
		tr, err := syntheticTrial(Config{}, 512, 256, core.PureIOU, pf)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ablate(tr, fmt.Sprintf("PF%d", pf)))
	}
	return rows, nil
}
