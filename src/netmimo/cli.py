"""Command-line entry point.

``netmimo run <config.json>`` executes the configured Monte Carlo sweep and
writes records.csv plus summary.csv to the output directory;
``netmimo cdf <records.csv>`` turns an emitted record file into per-group
empirical CDFs (cdf.csv).  Exit codes: 0 success, 1 configuration error,
2 partial failures (one or more trials hit a numerical failure).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigurationError
from .experiment import (
    emit_cdf_csv,
    emit_records_csv,
    emit_summary_csv,
    parse_config,
    read_records_csv,
    run_sweep,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netmimo",
        description="Monte Carlo sweeps for multicell MIMO beamformer designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the sweep described by a JSON config")
    run.add_argument("config", help="path to the sweep configuration file")
    run.add_argument("--seed", type=int, default=None, help="override the master seed")
    run.add_argument("--out-dir", default=".", help="directory for records.csv and summary.csv")
    run.add_argument("--workers", type=int, default=1, help="parallel trial workers")
    run.add_argument(
        "--algorithms",
        default=None,
        help="comma-separated algorithm list overriding the config",
    )

    cdf = sub.add_parser("cdf", help="compute per-group rate CDFs from a records.csv")
    cdf.add_argument("records", help="path to a records.csv emitted by 'run'")
    cdf.add_argument("--out-dir", default=".", help="directory for cdf.csv")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            spec = parse_config(args.config)
            if args.seed is not None:
                spec = replace(spec, master_seed=args.seed)
            if args.algorithms is not None:
                names = tuple(name.strip() for name in args.algorithms.split(",") if name.strip())
                spec = replace(spec, algorithms=names)
            out_dir = Path(args.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            records = run_sweep(spec, workers=max(1, args.workers))
            emit_records_csv(records, out_dir / "records.csv")
            emit_summary_csv(records, out_dir / "summary.csv")
            failures = sum(1 for r in records if r.failed)
            if failures:
                print(f"{failures} of {len(records)} trials failed", file=sys.stderr)
                return 2
            return 0

        records = read_records_csv(args.records)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        emit_cdf_csv(records, out_dir / "cdf.csv")
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
