"""Gate sustained benchmark slowdowns across a series of nightly payloads.

Usage::

    python benchmarks/check_regression.py BASELINE.json [HIST.json ...] CURRENT.json

Arguments are ``run_all.py --json`` payloads in chronological order —
oldest first (typically the committed ``benchmarks/BENCH_baseline.json``),
newest last (tonight's ``BENCH_nightly.json``).  For every timing metric
(per-row ``epoch_s``, the micro medians, and the ablation timings) the
detector computes a **robust baseline** over the historical values:

    median ± max(MAD_K * MAD * 1.4826,  REL_THRESHOLD * median)

where 1.4826 scales the median absolute deviation to a normal-equivalent
sigma.  A metric is **flagged** only when the slowdown is *sustained*: the
last ``--sustain`` payloads (default 2, clamped to what exists) must all
exceed the bound.  One noisy nightly on a shared runner therefore never
trips the gate, but a real regression does on the second night — and a 3×
jump trips it immediately even with a single current payload, because the
current value alone satisfies the sustain window of 1.

Exit status: 0 when nothing is flagged, 1 on any sustained slowdown,
2 on usage/parse errors.  Unlike ``diff_nightly.py`` (informational),
this script is meant to be a **gating** nightly step.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

#: MAD-to-sigma scale for normally distributed noise.
_MAD_SCALE = 1.4826


def _row_key(row: dict) -> str:
    """Stable identity of one benchmark row across payloads."""
    skip = {
        "epoch_s", "compile_s", "prefetch_wait_s", "peak_MB", "loss",
        "update_frac", "csr_hits", "csr_misses", "noop_skipped",
        "prefetch_hits", "prefetch_misses",
    }
    parts = [f"{k}={row[k]}" for k in sorted(row) if k not in skip]
    return "rows[" + ",".join(parts) + "].epoch_s"


def extract_metrics(payload: dict) -> dict[str, float]:
    """Flatten one nightly payload into ``{metric_name: seconds}``.

    Covers per-row ``epoch_s``, the ``micro`` medians, the pipeline
    ablation timings, and the serving-ablation p50/p99 latencies —
    every field the nightly diff treats as a timing.  Counters and losses
    are deliberately excluded: correctness is gated elsewhere (the
    differential tests), this detector is time-only.
    """
    out: dict[str, float] = {}
    for row in payload.get("rows", []):
        if isinstance(row.get("epoch_s"), (int, float)):
            out[_row_key(row)] = float(row["epoch_s"])
    for key, value in payload.get("micro", {}).items():
        if isinstance(value, (int, float)):
            out[f"micro.{key}"] = float(value)
    for row in payload.get("pipeline_ablation", []):
        for f in ("epoch_s", "prefetch_wait_s"):
            if isinstance(row.get(f), (int, float)):
                out[f"pipeline_ablation[pipeline={row.get('pipeline')}].{f}"] = float(row[f])
    for row in payload.get("serving_ablation", []):
        for f in ("p50_ms", "p99_ms"):
            if isinstance(row.get(f), (int, float)):
                out[f"serving_ablation[mode={row.get('mode')}].{f}"] = float(row[f])
    return out


def check(
    histories: list[dict[str, float]],
    sustain: int = 2,
    rel_threshold: float = 0.5,
    mad_k: float = 3.0,
) -> tuple[list[str], list[str]]:
    """Return ``(flagged, lines)`` over chronological metric snapshots.

    ``histories[:-sustain]`` (at least the first entry) forms the baseline
    window; a metric is flagged when every value in the sustain window
    exceeds ``median + max(mad_k * MAD * 1.4826, rel_threshold * median)``.
    Metrics missing from any payload are skipped for that payload (a new
    benchmark has no history to regress against).
    """
    if sustain < 1:
        raise ValueError("sustain must be >= 1")
    lines: list[str] = []
    flagged: list[str] = []
    names = sorted({name for h in histories for name in h})
    for name in names:
        series = [h[name] for h in histories if name in h]
        if len(series) < 2:
            lines.append(f"  {name}: only {len(series)} sample(s); skipped")
            continue
        window = min(sustain, len(series) - 1)
        baseline, recent = series[:-window], series[-window:]
        med = statistics.median(baseline)
        mad = statistics.median(abs(x - med) for x in baseline)
        bound = med + max(mad_k * mad * _MAD_SCALE, rel_threshold * med)
        worst = max(recent)
        if med > 0 and all(v > bound for v in recent):
            flagged.append(name)
            lines.append(
                f"  REGRESSION {name}: last {window} value(s) all > {bound:.6f} "
                f"(baseline median {med:.6f}, worst {worst:.6f}, "
                f"{100 * (worst - med) / med:+.0f}%)"
            )
        else:
            lines.append(
                f"  ok {name}: median {med:.6f}, bound {bound:.6f}, "
                f"latest {series[-1]:.6f}"
            )
    return flagged, lines


def _load(path: pathlib.Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("payloads", nargs="+", type=pathlib.Path,
                        help="run_all.py --json payloads, oldest first, current last")
    parser.add_argument("--sustain", type=int, default=2,
                        help="consecutive elevated payloads required to flag (default 2)")
    parser.add_argument("--rel-threshold", type=float, default=0.5,
                        help="relative slowdown floor, e.g. 0.5 = 50%% over median (default 0.5)")
    parser.add_argument("--mad-k", type=float, default=3.0,
                        help="MAD multiplier for the noise bound (default 3.0)")
    args = parser.parse_args(argv)

    if len(args.payloads) < 2:
        print("only one payload given: nothing to compare yet (gate passes)")
        return 0
    histories = [extract_metrics(_load(p)) for p in args.payloads]
    try:
        flagged, lines = check(
            histories, sustain=args.sustain,
            rel_threshold=args.rel_threshold, mad_k=args.mad_k,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"regression check over {len(histories)} payload(s), "
          f"sustain={args.sustain}, rel>{args.rel_threshold:.0%}, mad_k={args.mad_k}")
    print("\n".join(lines))
    if flagged:
        print(f"\nFAIL: {len(flagged)} sustained slowdown(s): {', '.join(flagged)}")
        return 1
    print("\nPASS: no sustained slowdowns")
    return 0


if __name__ == "__main__":
    sys.exit(main())
