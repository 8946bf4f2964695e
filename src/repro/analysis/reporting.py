"""Plain-text table rendering for experiment results.

The benchmark harness prints the same rows the paper's tables report; this
module keeps the formatting in one place.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    float_format: str = "{:,.2f}",
) -> str:
    """Render a simple aligned text table."""

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append("  ".join("-" * w for w in widths))
    parts.extend(line(row) for row in rendered)
    return "\n".join(parts)


#: ``(header, row key, display factor)`` of the HP/spot SLO columns every
#: paper table prints; Table 5 style comparisons add the HP tail in front.
SLO_COLUMNS = (
    ("HP JCT(s)", "hp_jct", 1.0),
    ("HP JQT(s)", "hp_jqt", 1.0),
    ("Spot JCT(s)", "spot_jct", 1.0),
    ("Spot JQT(s)", "spot_jqt", 1.0),
    ("Spot e(%)", "spot_eviction", 100.0),
)
SCHEDULER_COLUMNS = (("HP JCT-p99(s)", "hp_jct_p99", 1.0),) + SLO_COLUMNS


def format_scheduler_table(
    results: Mapping[object, Mapping[str, float]],
    title: str,
    columns=SCHEDULER_COLUMNS,
    label_header: str = "Scheduler",
) -> str:
    """One row per entry of ``results`` — its label, then ``columns`` — in
    the Table-5 style comparison layout (or any other)."""
    rows = [
        [label, *(metrics.get(key, float("nan")) * factor for _, key, factor in columns)]
        for label, metrics in results.items()
    ]
    return format_table([label_header, *(header for header, _, _ in columns)], rows, title=title)


def improvement_row(results: Mapping[str, Mapping[str, float]], ours: str = "GFS") -> Dict[str, float]:
    """Relative improvement of ``ours`` over the best baseline per metric."""
    if ours not in results:
        return {}
    improvements: Dict[str, float] = {}
    for metric in ("hp_jct", "hp_jqt", "spot_jct", "spot_jqt", "spot_eviction"):
        baseline_values = [
            m[metric] for name, m in results.items() if name != ours and metric in m
        ]
        if not baseline_values:
            continue
        best_baseline = min(baseline_values)
        ours_value = results[ours].get(metric)
        if ours_value is None or best_baseline <= 0:
            continue
        improvements[metric] = (best_baseline - ours_value) / best_baseline
    return improvements
