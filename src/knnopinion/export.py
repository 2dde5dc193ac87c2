"""Trajectory export: CSV (frozen compatibility contract) and a small
hand-rolled SVG line plot, plus the JSON metadata sidecar.

CSV contract: header ``step,agent_id,opinion``; one row per present agent at
every recorded step; agent ids are 1-based; floats carry 17 significant
digits, rationals print as ``p/q``. Rows are ordered by step, then agent id.

Both writers work in whole-snapshot passes. Consecutive snapshots with equal
ids form a block (an add or remove event starts a new one). A block's first
snapshot formats every entry with one ``map``. Each later snapshot copies
the texts of the one before and reformats only its changed positions, which
one scan finds: the entries whose opinion is not the same object as before.
Identity, not ==, since 0.0 == -0.0 but the two print differently. The SVG
transposes each block: an agent's points in it are one join that interleaves
the block's x prefixes with the agent's column of y texts. A writer given
no blocks scans the record; write_run_outputs scans once and passes them to both.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, compress
from operator import is_not
from typing import NamedTuple

from .harness import TrajectoryRecord
from .numerics import FLOAT, format_scalar
from .scenario import json_text

CSV_HEADER = "step,agent_id,opinion"


class _Block(NamedTuple):
    ids: tuple
    steps: list      # recorded step of each snapshot
    opinions: list   # opinions tuple of each snapshot
    changed: list    # per snapshot after the first: positions of new objects


def _blocks(record: TrajectoryRecord) -> list:
    """The record's snapshots split into blocks of consecutive equal ids."""
    blocks = []
    block = prev = None
    for step, (ids, opinions) in zip(record.recorded_steps, record.snapshots):
        if block is not None and ids == block.ids:
            block.changed.append(list(compress(range(len(ids)), map(is_not, opinions, prev))))
            block.steps.append(step)
            block.opinions.append(opinions)
        else:
            block = _Block(ids, [step], [opinions], [])
            blocks.append(block)
        prev = opinions
    return blocks


def _snapshot_texts(block: _Block, text):
    """Yield ``text(agent, opinion)`` of every entry of each snapshot of the
    block, reformatting after the first snapshot only the changed positions."""
    ids = block.ids
    texts = list(map(text, ids, block.opinions[0]))
    yield texts
    for opinions, changed in zip(block.opinions[1:], block.changed):
        texts = texts.copy()
        for i in changed:
            texts[i] = text(ids[i], opinions[i])
        yield texts


def trajectory_to_csv(record: TrajectoryRecord, blocks=None) -> str:
    if record.backend == FLOAT:
        text = "{},{:.17g}".format
    else:
        def text(agent, v):
            return f"{agent},{format_scalar(v)}"
    chunks = [CSV_HEADER]
    for block in blocks or _blocks(record):
        for step, texts in zip(block.steps, _snapshot_texts(block, text)):
            row = f"\n{step},"   # each row of a snapshot starts with this
            chunks += row, row.join(texts)
    chunks.append("\n")
    return "".join(chunks)


def trajectory_metadata(record: TrajectoryRecord, spec) -> dict:
    fmt = "{:.17g}".format if record.backend == FLOAT else format_scalar
    return {
        "name": record.name,
        "backend": record.backend,
        "stop_reason": record.stop_reason,
        "total_steps": record.total_steps,
        "classification": record.classification,
        "final_ids": list(record.final_ids),
        "final_opinions": list(map(fmt, record.final_opinions)),
        "events": record.events_log,
        "initial_diameter": format_scalar(record.maxs[0] - record.mins[0]),
        "final_diameter": format_scalar(record.maxs[-1] - record.mins[-1]),
        "scenario": spec.to_dict(),
    }


def trajectory_to_svg(record: TrajectoryRecord, blocks=None) -> str:
    """One polyline per agent, time on x, opinion on y, on a 640x400 canvas.
    Agents appearing mid-run (additions) start where they appear."""
    width, height, margin = 640, 400, 40.0
    max_step = max(record.recorded_steps[-1], 1)
    blocks = blocks or _blocks(record)
    # every opinion is in its block's first snapshot or at a changed position
    moved = [opinions[i] for b in blocks
             for opinions, changed in zip(b.opinions[1:], b.changed) for i in changed]
    lo = float(min(chain((min(b.opinions[0]) for b in blocks), moved)))
    hi = float(max(chain((max(b.opinions[0]) for b in blocks), moved)))
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

    def y_text(_, v):
        return f"{height - margin - span_y * (float(v) - lo) / (hi - lo):.2f}"

    segments = defaultdict(list)   # agent -> its points in each block it spans
    for block in blocks:
        # even slots: the x prefixes of the block's steps; odd: an agent's y texts
        points = [None] * (2 * len(block.steps))
        points[0::2] = [f" {margin + (width - 2 * margin) * step / max_step:.2f},"
                        for step in block.steps]
        points[0] = points[0][1:]   # no space before an agent's first point
        for agent, column in zip(block.ids, zip(*_snapshot_texts(block, y_text))):
            points[1::2] = column
            segments[agent].append("".join(points))
    for agent in sorted(segments):
        color = palette[(agent - 1) % len(palette)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1" '
                     f'points="{" ".join(segments[agent])}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_run_outputs(record: TrajectoryRecord, prefix: str, spec) -> list:
    """Write <prefix>.csv, <prefix>.meta.json and <prefix>.svg; the metadata
    holds `spec`, the scenario the record ran."""
    blocks = _blocks(record)
    paths = []
    csv_path = f"{prefix}.csv"
    with open(csv_path, "w") as fh:
        fh.write(trajectory_to_csv(record, blocks))
    paths.append(csv_path)
    meta_path = f"{prefix}.meta.json"
    with open(meta_path, "w") as fh:
        fh.write(json_text(trajectory_metadata(record, spec)))
    paths.append(meta_path)
    svg_path = f"{prefix}.svg"
    with open(svg_path, "w") as fh:
        fh.write(trajectory_to_svg(record, blocks))
    paths.append(svg_path)
    return paths
