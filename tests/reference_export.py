"""The literal exporters, the oracle for `export.trajectory_to_csv` and
`export.trajectory_to_svg`.

They format every opinion of every snapshot afresh: one `format_scalar` call
per CSV row, and per agent a list of (step, float opinion) points whose x
and y pixels are computed point by point. The exporters in `export` must
produce the same bytes while reusing the text of unchanged opinions.
"""

from knnopinion.export import CSV_HEADER
from knnopinion.harness import TrajectoryRecord
from knnopinion.numerics import format_scalar


def reference_csv(record: TrajectoryRecord) -> str:
    lines = [CSV_HEADER]
    for step, (ids, opinions) in zip(record.recorded_steps, record.snapshots):
        for agent, opinion in zip(ids, opinions):
            lines.append(f"{step},{agent},{format_scalar(opinion)}")
    return "\n".join(lines) + "\n"


def series_by_agent(record: TrajectoryRecord) -> dict:
    series: dict = {}
    for step, (ids, opinions) in zip(record.recorded_steps, record.snapshots):
        for agent, opinion in zip(ids, opinions):
            series.setdefault(agent, []).append((step, float(opinion)))
    return series


def reference_svg(record: TrajectoryRecord) -> str:
    series = series_by_agent(record)
    width, height, margin = 640, 400, 40.0
    max_step = max(record.recorded_steps[-1], 1)
    all_vals = [v for pts in series.values() for _, v in pts]
    lo, hi = min(all_vals), max(all_vals)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    span_x = width - 2 * margin
    span_y = height - 2 * margin

    def px(step):
        return margin + span_x * step / max_step

    def py(value):
        return height - margin - span_y * (value - lo) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 8}" font-size="12" '
        f'text-anchor="middle">step (0..{record.recorded_steps[-1]})</text>',
        f'<text x="12" y="{margin - 8}" font-size="12">opinion '
        f"[{lo:.3g}, {hi:.3g}]</text>",
    ]
    palette = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
               "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]
    for agent in sorted(series):
        pts = " ".join(f"{px(s):.2f},{py(v):.2f}" for s, v in series[agent])
        color = palette[(agent - 1) % len(palette)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{pts}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
