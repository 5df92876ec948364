"""Benchmark command line: load a scenario, sweep a parameter, emit CSV."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .bench import (
    ALGORITHMS,
    SWEEPABLE_PARAMS,
    SweepSpec,
    emit_csv,
    load_scenario,
    run_sweep,
    validate_sweep,
)


def _parse_sweep(text: str) -> SweepSpec:
    if "=" not in text:
        raise argparse.ArgumentTypeError("expected PARAM=v1,v2,...")
    name, _, values = text.partition("=")
    name = name.strip()
    if name not in SWEEPABLE_PARAMS:
        raise argparse.ArgumentTypeError(
            f"unknown sweep parameter {name!r}; choose from {', '.join(SWEEPABLE_PARAMS)}")
    try:
        return SweepSpec(name, [float(v) for v in values.split(",") if v.strip() != ""])
    except ValueError as exc:  # a word, or no value at all
        raise argparse.ArgumentTypeError(f"bad sweep values: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semec-bench",
        description="Min-max delay benchmark for semantic-aware edge offloading.")
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--sweep", type=_parse_sweep, default=None,
                        metavar="PARAM=v1,v2,...",
                        help=f"swept parameter; one of {', '.join(SWEEPABLE_PARAMS)}")
    parser.add_argument("--algorithm", action="append", choices=sorted(ALGORITHMS),
                        default=None, help="algorithm to run (repeatable; default: semantic)")
    parser.add_argument("--out", default="sweep_results.csv", help="output CSV path")
    parser.add_argument("--verify", action="store_true",
                        help="certify each semantic solve against random feasible perturbations")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.sweep is not None:
            validate_sweep(args.sweep)
    except (OSError, ValueError, MemoryError) as exc:  # a bad scenario, sweep value or count
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 2

    algorithms = args.algorithm or ["semantic"]
    if args.sweep is None:
        # single run per algorithm, recorded under a no-op sweep
        sweep = SweepSpec("f_mec_total", (scenario.system.f_mec_total,))
    else:
        sweep = args.sweep

    print(f"scenario={scenario.label or args.scenario} devices={len(scenario.devices)}")
    print(f"sweep={sweep.param}={','.join(repr(v) for v in sweep.values)} "
          f"algorithms={','.join(algorithms)} verify={args.verify}")

    results = run_sweep(scenario, sweep, algorithms, verify=args.verify)
    emit_csv(results, args.out)
    print(f"wrote {args.out} ({len(results)} rows)")

    failures = [r for r in results if r.error]
    for r in failures:
        print(f"cell failed: {r.swept_param}={r.value} algorithm={r.algorithm}: {r.error}",
              file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
