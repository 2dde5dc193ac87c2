"""Trajectory export: CSV (frozen compatibility contract) and a small
hand-rolled SVG line plot, plus the JSON metadata sidecar.

CSV contract: header ``step,agent_id,opinion``; one row per present agent at
every recorded step; agent ids are 1-based; floats carry 17 significant
digits, rationals print as ``p/q``. Rows are ordered by step, then agent id.
Unchanged opinions, by identity, reuse their text from the previous snapshot.
"""

from __future__ import annotations

import json
from collections import defaultdict

from .harness import TrajectoryRecord
from .numerics import FLOAT, format_scalar

CSV_HEADER = "step,agent_id,opinion"


def _snapshot_texts(record: TrajectoryRecord, text):
    """Yield each snapshot's ids with ``text(agent, opinion)`` of its entries.
    While the ids stay the same, an opinion that is the same object as in the
    previous snapshot keeps its text: identity, not ==, since 0.0 == -0.0."""
    prev_ids = prev_opinions = prev_texts = None
    for ids, opinions in record.snapshots:
        if ids != prev_ids:   # no opinion is None, so every entry is formatted
            prev_opinions = prev_texts = (None,) * len(ids)
        texts = [t if v is p else text(a, v)
                 for a, v, p, t in zip(ids, opinions, prev_opinions, prev_texts)]
        yield ids, texts
        prev_ids, prev_opinions, prev_texts = ids, opinions, texts


def trajectory_to_csv(record: TrajectoryRecord) -> str:
    fmt = "{:.17g}".format if record.backend == FLOAT else format_scalar
    lines = [CSV_HEADER]
    rows = _snapshot_texts(record, lambda agent, v: f"{agent},{fmt(v)}")
    for step, (_, texts) in zip(record.recorded_steps, rows):
        lines.append(f"{step}," + f"\n{step},".join(texts))
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
        "initial_diameter": format_scalar(record.maxs[0] - record.mins[0]),
        "final_diameter": format_scalar(record.maxs[-1] - record.mins[-1]),
    }
    if spec is not None:
        meta["scenario"] = spec.to_dict()
    return meta


def trajectory_to_svg(record: TrajectoryRecord) -> str:
    """One polyline per agent, time on x, opinion on y, on a 640x400 canvas.
    Agents appearing mid-run (additions) start where they appear."""
    width, height, margin = 640, 400, 40.0
    max_step = max(record.recorded_steps[-1], 1)
    lo = float(min(min(opinions) for _, opinions in record.snapshots))
    hi = float(max(max(opinions) for _, opinions in record.snapshots))
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    elif 0 in (lo, hi):
        # the label keeps the sign of the first zero by agent id, then by step
        zero = min((a, i, v) for i, (ids, opinions) in enumerate(record.snapshots)
                   for a, v in zip(ids, opinions) if v == 0)[2]
        lo, hi = (float(zero), hi) if lo == 0 else (lo, float(zero))
    span_y = height - 2 * margin
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
    y_texts = _snapshot_texts(
        record, lambda _, v: f"{height - margin - span_y * (float(v) - lo) / (hi - lo):.2f}")
    points = defaultdict(list)
    for step, (ids, texts) in zip(record.recorded_steps, y_texts):
        x = f"{margin + (width - 2 * margin) * step / max_step:.2f},"
        for agent, y in zip(ids, texts):
            points[agent].append(x + y)
    for agent in sorted(points):
        color = palette[(agent - 1) % len(palette)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1" '
                     f'points="{" ".join(points[agent])}"/>')
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
