"""Diff two ``BENCH_nightly.json`` dumps from ``run_all.py --json``.

Usage::

    python benchmarks/diff_nightly.py previous/BENCH_nightly.json BENCH_nightly.json

Prints per-row epoch-time deltas (keyed by system/dataset/params), micro
median deltas, and reuse-counter changes.  Purely informational: timing on
shared CI runners is noisy, so the nightly workflow runs this step
non-gating — the exit status is 0 whenever both files parse, regardless of
how large the regressions look.  The *gating* companion is
``check_regression.py``, which applies a median±MAD sustained-slowdown
test over the payload series.

When ``PREVIOUS.json`` does not exist (first nightly, or the artifact
expired) the diff falls back to the committed
``benchmarks/BENCH_baseline.json`` next to this script, so every nightly
produces a comparison instead of silently skipping.
"""

from __future__ import annotations

import json
import pathlib
import sys

#: Timing fields are diffed as percentages; counter fields as raw deltas.
_TIMING_FIELDS = ("epoch_s", "compile_s", "prefetch_wait_s")
_COUNTER_FIELDS = ("csr_hits", "csr_misses", "noop_skipped", "prefetch_hits", "prefetch_misses")


def _row_key(row: dict) -> tuple:
    return tuple(
        (k, row[k]) for k in sorted(row)
        if k not in _TIMING_FIELDS + _COUNTER_FIELDS + ("peak_MB", "loss", "update_frac")
    )


def _pct(old: float, new: float) -> str:
    if not old:
        return "n/a"
    delta = 100.0 * (new - old) / old
    return f"{delta:+.1f}%"


def diff(prev: dict, curr: dict) -> list[str]:
    """Human-readable diff lines between two nightly payloads."""
    lines = [f"elapsed: {prev.get('elapsed_s', 0):.1f}s -> {curr.get('elapsed_s', 0):.1f}s "
             f"({_pct(prev.get('elapsed_s', 0), curr.get('elapsed_s', 0))})"]

    prev_rows = {_row_key(r): r for r in prev.get("rows", [])}
    matched = 0
    for row in curr.get("rows", []):
        before = prev_rows.get(_row_key(row))
        if before is None:
            continue
        matched += 1
        label = f"{row.get('system', '?')}/{row.get('dataset', '?')}"
        known = set(_TIMING_FIELDS) | set(_COUNTER_FIELDS) | {
            "system", "dataset", "peak_MB", "loss", "update_frac",
        }
        extras = [f"{k}={v}" for k, v in row.items() if k not in known]
        changes = [f"{f} {_pct(before.get(f, 0), row.get(f, 0))}"
                   for f in _TIMING_FIELDS if f in row]
        counter_moves = [f"{f} {row.get(f, 0) - before.get(f, 0):+d}"
                         for f in _COUNTER_FIELDS
                         if f in row and row.get(f, 0) != before.get(f, 0)]
        lines.append(f"  {label} [{' '.join(extras)}]: "
                     f"{', '.join(changes + counter_moves) or 'unchanged'}")
    lines.append(f"rows matched: {matched}/{len(curr.get('rows', []))}")

    for section in ("micro", "reuse_counters"):
        before, after = prev.get(section, {}), curr.get(section, {})
        for key in after:
            old, new = before.get(key), after[key]
            if old is None:
                lines.append(f"  {section}.{key}: (new) {new}")
            elif isinstance(new, float) and key.endswith("_s"):
                lines.append(f"  {section}.{key}: {old} -> {new} ({_pct(old, new)})")
            elif old != new:
                lines.append(f"  {section}.{key}: {old} -> {new}")

    # Pipeline on/off ablation rows, keyed by the staleness knob.
    prev_pipe = {r.get("pipeline"): r for r in prev.get("pipeline_ablation", [])}
    for row in curr.get("pipeline_ablation", []):
        label = f"pipeline_ablation[pipeline={row.get('pipeline')}]"
        before = prev_pipe.get(row.get("pipeline"))
        if before is None:
            lines.append(f"  {label}: (new) epoch_s={row.get('epoch_s')} "
                         f"hit%={row.get('prefetch_hit_%')}")
            continue
        changes = [f"{f} {_pct(before.get(f, 0), row.get(f, 0))}"
                   for f in ("epoch_s", "prefetch_wait_s") if f in row]
        counter_moves = [f"{f} {row.get(f, 0) - before.get(f, 0):+d}"
                         for f in ("prefetch_hits", "prefetch_misses")
                         if row.get(f, 0) != before.get(f, 0)]
        lines.append(f"  {label}: {', '.join(changes + counter_moves) or 'unchanged'}")

    # Serving ablation rows, keyed by mode (coalescing/invalidation on-off).
    prev_serve = {r.get("mode"): r for r in prev.get("serving_ablation", [])}
    for row in curr.get("serving_ablation", []):
        label = f"serving_ablation[mode={row.get('mode')}]"
        before = prev_serve.get(row.get("mode"))
        if before is None:
            lines.append(f"  {label}: (new) p50_ms={row.get('p50_ms')} "
                         f"p99_ms={row.get('p99_ms')} qps={row.get('qps')}")
            continue
        changes = [f"{f} {_pct(before.get(f, 0), row.get(f, 0))}"
                   for f in ("p50_ms", "p99_ms") if f in row]
        counter_moves = [f"{f} {row.get(f, 0) - before.get(f, 0):+d}"
                         for f in ("forwards", "row_cache_hits", "updates")
                         if row.get(f, 0) != before.get(f, 0)]
        lines.append(f"  {label}: {', '.join(changes + counter_moves) or 'unchanged'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: diff_nightly.py PREVIOUS.json CURRENT.json", file=sys.stderr)
        return 2
    prev_path = pathlib.Path(argv[0])
    if not prev_path.exists():
        # First nightly run (or the artifact expired): fall back to the
        # committed baseline so the diff still runs.  Only if that is also
        # missing do we skip — succeed with a clear note instead of
        # tracebacking in CI.
        fallback = pathlib.Path(__file__).resolve().parent / "BENCH_baseline.json"
        if fallback.exists():
            print(f"no previous nightly at {prev_path}; diffing against committed {fallback.name}")
            prev_path = fallback
        else:
            print(f"no baseline yet: {prev_path} does not exist; skipping diff")
            return 0
    prev = json.loads(prev_path.read_text())
    curr = json.loads(pathlib.Path(argv[1]).read_text())
    print("\n".join(diff(prev, curr)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
