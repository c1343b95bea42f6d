package harness

import (
	"fmt"
	"strings"
	"time"
)

// This file renders experiment results as aligned text tables (matching the
// paper's tables/figures row-for-row) and as CSV for plotting.

// RenderTableI renders the SE-analysis cost table.
func RenderTableI(rows []TableIRow) string {
	var sb strings.Builder
	sb.WriteString("Table I: SE analysis of update transactions (optimized / unoptimized)\n")
	fmt.Fprintf(&sb, "%-32s %18s %12s %10s %9s %22s %22s\n",
		"Transaction", "States expl/total", "Depth opt/max", "Key-sets", "Indirect",
		"Memory opt/unopt", "Time opt/unopt")
	for _, r := range rows {
		est := ""
		if r.Extrapolated {
			est = "~"
		}
		fmt.Fprintf(&sb, "%-32s %9d/%-8s %7d/%-5d %10d %9d %10s/%s%-10s %11s/%s%-10s\n",
			r.Name,
			r.StatesExplored, fmtBig(r.TotalStates),
			r.Depth, r.DepthMax,
			r.UniqueKeySets, r.IndirectKeys,
			fmtBytes(r.MemOpt), est, fmtBytes(r.MemUnopt),
			fmtDur(r.TimeOpt), est, fmtDur(r.TimeUnopt))
	}
	return sb.String()
}

// RenderComparison renders Fig. 3 / Fig. 4 rows (throughput + abort rate).
func RenderComparison(title string, rows []ComparisonRow) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	fmt.Fprintf(&sb, "%-14s %-12s %14s %12s %10s %10s\n",
		"Workload", "System", "Throughput", "AbortRate", "BatchSize", "p99")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %-12s %11.0f/s %10.2f%% %10d %10s\n",
			r.Workload, r.System, r.Throughput, r.AbortPct, r.BatchSize, fmtDur(r.P99))
	}
	return sb.String()
}

// RenderVariants renders Fig. 5 rows (variant throughput + time breakdown).
func RenderVariants(rows []VariantRow) string {
	var sb strings.Builder
	sb.WriteString("Fig. 5: Prognosticator variants (throughput, prepare/re-exec time)\n")
	fmt.Fprintf(&sb, "%-14s %-10s %14s %12s %12s %10s\n",
		"Workload", "Variant", "Throughput", "MeanPrepare", "MeanReexec", "AbortRate")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %-10s %11.0f/s %12s %12s %9.2f%%\n",
			r.Workload, r.Variant, r.Throughput,
			fmtDur(r.MeanPrepare), fmtDur(r.MeanReexec), r.AbortPct)
	}
	return sb.String()
}

// ComparisonCSV renders comparison rows as CSV.
func ComparisonCSV(rows []ComparisonRow) string {
	var sb strings.Builder
	sb.WriteString("workload,system,throughput_tps,abort_pct,batch_size,p99_us\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s,%s,%.1f,%.3f,%d,%d\n",
			r.Workload, r.System, r.Throughput, r.AbortPct, r.BatchSize, r.P99.Microseconds())
	}
	return sb.String()
}

// VariantsCSV renders variant rows as CSV.
func VariantsCSV(rows []VariantRow) string {
	var sb strings.Builder
	sb.WriteString("workload,variant,throughput_tps,mean_prepare_us,mean_reexec_us,abort_pct\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s,%s,%.1f,%d,%d,%.3f\n",
			r.Workload, r.Variant, r.Throughput,
			r.MeanPrepare.Microseconds(), r.MeanReexec.Microseconds(), r.AbortPct)
	}
	return sb.String()
}

// TableICSV renders Table I as CSV.
func TableICSV(rows []TableIRow) string {
	var sb strings.Builder
	sb.WriteString("transaction,states_explored,total_states,depth_opt,depth_max,key_sets,indirect_keys,mem_opt_bytes,mem_unopt_bytes,time_opt_us,time_unopt_us,extrapolated\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%q,%d,%.0f,%d,%d,%d,%d,%d,%d,%d,%d,%t\n",
			r.Name, r.StatesExplored, r.TotalStates, r.Depth, r.DepthMax,
			r.UniqueKeySets, r.IndirectKeys, r.MemOpt, r.MemUnopt,
			r.TimeOpt.Microseconds(), r.TimeUnopt.Microseconds(), r.Extrapolated)
	}
	return sb.String()
}

func fmtBig(v float64) string {
	switch {
	case v >= 1e12:
		return fmt.Sprintf("%.1fT", v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d >= 24*time.Hour:
		return fmt.Sprintf("%.1fd", d.Hours()/24)
	case d >= time.Hour:
		return fmt.Sprintf("%.1fh", d.Hours())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
