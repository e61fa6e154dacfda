"""Training-curve CSV formatting and parsing, and standalone SVG rendering.

CSV layout: header ``epoch,train_loss,train_acc,val_loss,val_acc``, one row
per epoch, reals printed with 6 significant digits. The SVG has two panels
(loss left, accuracy right) with train curves dashed and validation curves
solid, linear axes auto-ranged to the data.

This module only formats and parses. The CLI replaces each file whole through
``checkpoint.write_atomic``, and a run with no epochs removes a stale ``curves.svg``.
"""

from __future__ import annotations

from pathlib import Path

from .errors import CurvesFormatError
from .train import EpochRecord

CSV_HEADER = "epoch,train_loss,train_acc,val_loss,val_acc"


def format_curves_csv(records: list[EpochRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.epoch},{r.train_loss:.6g},{r.train_acc:.6g},"
            f"{r.val_loss:.6g},{r.val_acc:.6g}"
        )
    return "\n".join(lines) + "\n"


def read_curves_csv(path: str | Path) -> list[EpochRecord]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CurvesFormatError(f"cannot read curves file {path}: {exc}") from exc
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip() != CSV_HEADER:
        raise CurvesFormatError(
            f"curves file must start with header {CSV_HEADER!r}"
        )
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 5:
            raise CurvesFormatError(f"line {lineno}: expected 5 fields")
        try:
            records.append(EpochRecord(
                epoch=int(parts[0]),
                train_loss=float(parts[1]), train_acc=float(parts[2]),
                val_loss=float(parts[3]), val_acc=float(parts[4]),
            ))
        except ValueError as exc:
            raise CurvesFormatError(f"line {lineno}: {exc}") from exc
    if not records:
        raise CurvesFormatError("curves file has no data rows")
    return records


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_PANEL_W, _PANEL_H = 420, 300
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 20, 40, 50
_GAP = 40


def _auto_range(values):
    lo, hi = min(values), max(values)
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _polyline(xs, ys, x_range, y_range, ox, oy, color, dashed):
    x0, x1 = x_range
    y0, y1 = y_range
    pts = []
    for x, y in zip(xs, ys):
        px = ox + (x - x0) / (x1 - x0) * _PANEL_W
        py = oy + _PANEL_H - (y - y0) / (y1 - y0) * _PANEL_H
        pts.append(f"{px:.2f},{py:.2f}")
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} '
            f'points="{" ".join(pts)}"/>')


def _panel(title, ylabel, epochs, train_vals, val_vals, ox, oy):
    x_range = _auto_range(epochs)
    y_range = _auto_range(list(train_vals) + list(val_vals))
    parts = [
        f'<rect x="{ox}" y="{oy}" width="{_PANEL_W}" height="{_PANEL_H}" '
        f'fill="none" stroke="#333"/>',
        f'<text x="{ox + _PANEL_W / 2:.0f}" y="{oy - 12}" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        f'<text x="{ox + _PANEL_W / 2:.0f}" y="{oy + _PANEL_H + 34}" '
        f'text-anchor="middle" font-size="12">epoch</text>',
        f'<text x="{ox - 44}" y="{oy + _PANEL_H / 2:.0f}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 {ox - 44} '
        f'{oy + _PANEL_H / 2:.0f})">{ylabel}</text>',
        # min/max tick labels
        f'<text x="{ox - 6}" y="{oy + _PANEL_H}" text-anchor="end" '
        f'font-size="10">{y_range[0]:.4g}</text>',
        f'<text x="{ox - 6}" y="{oy + 10}" text-anchor="end" '
        f'font-size="10">{y_range[1]:.4g}</text>',
        f'<text x="{ox}" y="{oy + _PANEL_H + 16}" text-anchor="middle" '
        f'font-size="10">{epochs[0]}</text>',
        f'<text x="{ox + _PANEL_W}" y="{oy + _PANEL_H + 16}" '
        f'text-anchor="middle" font-size="10">{epochs[-1]}</text>',
        _polyline(epochs, train_vals, x_range, y_range, ox, oy, "#d62728", True),
        _polyline(epochs, val_vals, x_range, y_range, ox, oy, "#1f77b4", False),
    ]
    return "\n".join(parts)


def render_curves_svg(records: list[EpochRecord]) -> str:
    """Two-panel loss/accuracy figure; train dashed, validation solid."""
    if not records:
        raise CurvesFormatError("no records to plot")
    epochs = [r.epoch for r in records]
    width = _MARGIN_L + _PANEL_W + _GAP + _PANEL_W + _MARGIN_R + _MARGIN_L
    height = _MARGIN_T + _PANEL_H + _MARGIN_B
    ox2 = _MARGIN_L + _PANEL_W + _GAP + _MARGIN_L
    legend_y = height - 14
    svg = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _panel("loss", "loss", epochs,
               [r.train_loss for r in records], [r.val_loss for r in records],
               _MARGIN_L, _MARGIN_T),
        _panel("accuracy", "accuracy", epochs,
               [r.train_acc for r in records], [r.val_acc for r in records],
               ox2, _MARGIN_T),
        f'<line x1="{_MARGIN_L}" y1="{legend_y}" x2="{_MARGIN_L + 30}" '
        f'y2="{legend_y}" stroke="#d62728" stroke-width="1.5" '
        f'stroke-dasharray="6,4"/>',
        f'<text x="{_MARGIN_L + 36}" y="{legend_y + 4}" font-size="11">train'
        f'</text>',
        f'<line x1="{_MARGIN_L + 90}" y1="{legend_y}" x2="{_MARGIN_L + 120}" '
        f'y2="{legend_y}" stroke="#1f77b4" stroke-width="1.5"/>',
        f'<text x="{_MARGIN_L + 126}" y="{legend_y + 4}" font-size="11">'
        f'validation</text>',
        '</svg>',
    ]
    return "\n".join(svg) + "\n"
