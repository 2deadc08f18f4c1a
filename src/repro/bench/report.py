"""Plain-text and markdown rendering for reproduced figures.

The ASCII helpers feed the CLI printers; the markdown helpers produce
committable report files.  Markdown reports always include the fault
ledger recorded in ``EpochStats.faults`` / ``ServeStats.faults`` as a
per-system table — a chaos run whose report hides its injected-fault
counters is indistinguishable from a clean run.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Union


def fmt_value(v, digits: int = 3) -> str:
    """Render a cell: floats rounded, None/inf/nan as markers."""
    if v is None:
        return "-"
    if isinstance(v, str):
        return v
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf"
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 10 ** (-digits):
            return f"{v:.{digits}g}"
        return f"{v:.{digits}f}"
    return str(v)


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Fixed-width ASCII table."""
    cells = [[fmt_value(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in cells:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def format_series(name: str, xs: Sequence, ys: Sequence,
                  x_label: str = "x", y_label: str = "y",
                  width: int = 40) -> str:
    """A labelled series with a crude ASCII sparkbar per point."""
    finite = [y for y in ys if isinstance(y, (int, float))
              and not (isinstance(y, float) and (math.isnan(y) or math.isinf(y)))]
    peak = max(finite) if finite else 1.0
    lines = [f"{name}  ({x_label} -> {y_label})"]
    for x, y in zip(xs, ys):
        if isinstance(y, (int, float)) and not (
                isinstance(y, float) and (math.isnan(y) or math.isinf(y))):
            bar = "#" * max(1, int(width * y / peak)) if peak > 0 else ""
            lines.append(f"  {fmt_value(x):>8} | {fmt_value(y):>10} {bar}")
        else:
            lines.append(f"  {fmt_value(x):>8} | {fmt_value(y):>10}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Markdown rendering
# ----------------------------------------------------------------------

#: A stats record is either a live dataclass (EpochStats / ServeStats)
#: or its :mod:`repro.bench.results_io` round-trip (a plain dict).
StatsLike = Union[Dict, object]


def _stats_field(stats: StatsLike, name: str, default=None):
    if isinstance(stats, dict):
        return stats.get(name, default)
    return getattr(stats, name, default)


def _is_metric(cell) -> bool:
    """A ``stats.metrics`` entry (see :mod:`repro.bench.stats`)."""
    return isinstance(cell, dict) and "mean" in cell and "n" in cell


def _num(value) -> float:
    """NaN-tolerant numeric coercion (loaded artifacts tag NaN/inf as
    strings)."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return float("nan")
    if value is None:
        return float("nan")
    return float(value)


def fmt_mean_ci(mean, ci_low, ci_high, digits: int = 3) -> str:
    """``mean ± half-width`` when the CI is symmetric enough to read
    that way, else the explicit interval; degenerate CIs (single-shot
    or zero-variance samples) render as the bare mean."""
    mean, lo, hi = _num(mean), _num(ci_low), _num(ci_high)
    if math.isnan(lo) or math.isnan(hi) or (lo == hi == mean):
        return fmt_value(mean, digits)
    half_lo, half_hi = mean - lo, hi - mean
    span = max(abs(half_lo), abs(half_hi))
    if span > 0 and min(abs(half_lo), abs(half_hi)) / span >= 0.5:
        return f"{fmt_value(mean, digits)} ± {fmt_value(span, 2)}"
    return (f"{fmt_value(mean, digits)} "
            f"[{fmt_value(lo, digits)}, {fmt_value(hi, digits)}]")


def fmt_metric(metric: Dict, digits: int = 3) -> str:
    """One metric cell: ``mean ± CI`` plus its unit."""
    text = fmt_mean_ci(metric.get("mean"), metric.get("ci_low"),
                       metric.get("ci_high"), digits)
    unit = metric.get("unit")
    return f"{text} {unit}" if unit else text


def significance_marker(p_value) -> str:
    """Conventional stars: ``**`` p<0.01, ``*`` p<0.05, ``~`` not
    significant, ``·`` when no p-value exists (degraded comparison)."""
    p = _num(p_value)
    if math.isnan(p):
        return "·"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return "~"


def format_markdown_table(headers: Sequence[str],
                          rows: Sequence[Sequence]) -> str:
    """GitHub-flavoured markdown table.

    Cells holding ``stats.metrics`` entries render as ``mean ± CI``
    with their unit instead of a bare float.
    """
    lines = ["| " + " | ".join(str(h) for h in headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        cells = [fmt_metric(c) if _is_metric(c) else fmt_value(c)
                 for c in row]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def format_stats_markdown(stats_block: Dict) -> str:
    """The enriched ``stats`` block as a per-metric markdown table."""
    plan = stats_block.get("run_plan", {})
    fp = stats_block.get("fingerprint", {})
    rows = []
    for name, m in sorted(stats_block.get("metrics", {}).items()):
        rows.append([name, m.get("kind", "-"), m.get("direction", "-"),
                     m.get("n", "-"), fmt_metric(m),
                     fmt_value(_num(m.get("stddev"))),
                     fmt_value(_num(m.get("p50")))])
    head = (f"_{plan.get('runs', '?')} runs "
            f"(+{plan.get('warmup', '?')} warmup), "
            f"{int(100 * _num(stats_block.get('ci', {}).get('confidence', 0.95)))}% "
            f"bootstrap CI; python {fp.get('python', '?')}, "
            f"numpy {fp.get('numpy', '?')}, "
            f"commit {str(fp.get('commit', '?'))[:12]}_")
    return "\n".join([
        head, "",
        format_markdown_table(
            ["metric", "kind", "dir", "n", "mean ± CI", "stddev", "p50"],
            rows),
    ])


#: Verdict -> marker used in comparison tables.
_VERDICT_MARK = {"improved": "✓ improved", "regressed": "✗ REGRESSED",
                 "unchanged": "= unchanged", "info": "· info"}


def format_comparison_markdown(report) -> str:
    """An OLD-vs-NEW :class:`repro.bench.stats.ComparisonReport` as a
    markdown diff table with significance markers."""
    rows = []
    for c in report.comparisons:
        delta = _num(c.delta_pct)
        delta_txt = ("-" if math.isnan(delta)
                     else f"{delta:+.2f}%")
        p = _num(c.p_value)
        p_txt = ("-" if math.isnan(p) else fmt_value(p)) \
            + f" {significance_marker(c.p_value)}"
        rows.append([c.name, c.kind,
                     fmt_value(_num(c.old_mean)),
                     fmt_value(_num(c.new_mean)),
                     delta_txt, p_txt,
                     _VERDICT_MARK.get(c.classification,
                                       c.classification)])
    lines = [
        "## Bench comparison",
        "",
        f"_threshold {report.threshold_pct:g}%, alpha {report.alpha:g}; "
        "significance: ** p<0.01, * p<0.05, ~ not significant, "
        "· no p-value_",
        "",
        format_markdown_table(
            ["metric", "kind", "old mean", "new mean", "Δ", "p",
             "verdict"], rows),
    ]
    if report.added:
        lines += ["", "**Added metrics:** " + ", ".join(report.added)]
    if report.removed:
        lines += ["", "**Removed metrics:** " + ", ".join(report.removed)]
    if report.warnings:
        lines += [""] + [f"> ⚠ {w}" for w in report.warnings]
    regressions = report.regressions()
    lines += ["", f"**Verdict:** {len(regressions)} regression(s), "
                  f"{len(report.improvements())} improvement(s), "
                  f"{len(report.comparisons)} metric(s) compared."]
    return "\n".join(lines)


def aggregate_fault_ledgers(
        per_system: Dict[str, Sequence[StatsLike]]) -> Dict[str, Dict]:
    """Sum each system's per-epoch/per-run ``faults`` dicts."""
    totals: Dict[str, Dict] = {}
    for system, stats_list in per_system.items():
        agg: Dict[str, float] = {}
        for s in stats_list:
            for key, val in (_stats_field(s, "faults") or {}).items():
                agg[key] = agg.get(key, 0) + val
        totals[system] = agg
    return totals


def format_fault_ledger_markdown(
        per_system: Dict[str, Sequence[StatsLike]]) -> str:
    """Per-system fault-ledger table (one column per counter).

    Accepts live stats dataclasses or their ``results_io`` dict form.
    Systems that recorded no faults still appear (all zeros) so a
    report over a mixed clean/chaos comparison stays aligned.
    """
    totals = aggregate_fault_ledgers(per_system)
    keys = sorted({k for agg in totals.values() for k in agg})
    if not keys:
        return "_No faults recorded._"
    rows = [[system] + [totals[system].get(k, 0) for k in keys]
            for system in totals]
    return format_markdown_table(["system"] + list(keys), rows)


def markdown_report(title: str,
                    per_system: Dict[str, Sequence[StatsLike]]) -> str:
    """Full markdown report: per-epoch table + the fault ledger."""
    rows: List[List] = []
    for system, stats_list in per_system.items():
        for s in stats_list:
            rows.append([
                system,
                _stats_field(s, "epoch", 0),
                _stats_field(s, "epoch_time", float("nan")),
                _stats_field(s, "loss", float("nan")),
                _stats_field(s, "bytes_read", 0),
                _stats_field(s, "cache_hits", 0),
                _stats_field(s, "cache_misses", 0),
            ])
    sections = [
        f"# {title}",
        "",
        "## Per-epoch results",
        "",
        format_markdown_table(
            ["system", "epoch", "time (s)", "loss", "bytes read",
             "cache hits", "cache misses"], rows),
        "",
        "## Fault ledger",
        "",
        format_fault_ledger_markdown(per_system),
        "",
    ]
    return "\n".join(sections)
