"""Trajectory export: CSV (frozen compatibility contract) and a small
hand-rolled SVG line plot, plus the JSON metadata sidecar.

CSV contract: header ``step,agent_id,opinion``; one row per present agent at
every recorded step; agent ids are 1-based; floats carry 17 significant
digits, rationals print as ``p/q``. Rows are ordered by step, then agent id.
"""

from __future__ import annotations

import json

from .harness import TrajectoryRecord
from .numerics import format_scalar

CSV_HEADER = "step,agent_id,opinion"


def trajectory_to_csv(record: TrajectoryRecord) -> str:
    lines = [CSV_HEADER]
    for step, (ids, opinions) in zip(record.recorded_steps, record.snapshots):
        for agent, opinion in zip(ids, opinions):
            lines.append(f"{step},{agent},{format_scalar(opinion)}")
    return "\n".join(lines) + "\n"


def trajectory_metadata(record: TrajectoryRecord, spec=None) -> dict:
    meta = {
        "name": record.name,
        "backend": record.backend,
        "stop_reason": record.stop_reason,
        "total_steps": record.total_steps,
        "classification": record.classification,
        "final_ids": list(record.final_ids),
        "final_opinions": [format_scalar(v) for v in record.final_opinions],
        "events": record.events_log,
        "initial_diameter": format_scalar(record.diameters[0]),
        "final_diameter": format_scalar(record.diameters[-1]),
    }
    if spec is not None:
        meta["scenario"] = spec.to_dict()
    return meta


def _series_by_agent(record: TrajectoryRecord) -> dict:
    series: dict = {}
    for step, (ids, opinions) in zip(record.recorded_steps, record.snapshots):
        for agent, opinion in zip(ids, opinions):
            series.setdefault(agent, []).append((step, float(opinion)))
    return series


def trajectory_to_svg(record: TrajectoryRecord) -> str:
    """One polyline per agent, time on x, opinion on y, on a 640x400 canvas.
    Agents appearing mid-run (additions) start where they appear."""
    series = _series_by_agent(record)
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


def write_run_outputs(record: TrajectoryRecord, prefix: str, spec=None) -> list:
    """Write <prefix>.csv, <prefix>.meta.json and <prefix>.svg."""
    paths = []
    csv_path = f"{prefix}.csv"
    with open(csv_path, "w") as fh:
        fh.write(trajectory_to_csv(record))
    paths.append(csv_path)
    meta_path = f"{prefix}.meta.json"
    with open(meta_path, "w") as fh:
        json.dump(trajectory_metadata(record, spec), fh, indent=2)
        fh.write("\n")
    paths.append(meta_path)
    svg_path = f"{prefix}.svg"
    with open(svg_path, "w") as fh:
        fh.write(trajectory_to_svg(record))
    paths.append(svg_path)
    return paths
