"""Run one stopflow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc_slack --seed 1 --seconds 15 --trace 0

Run from the root of a stopflow checkout; stopflow is imported from its
``src`` directory.  A human-readable summary comes first; the last line of
standard output is the result as one JSON object.  With ``--trace 1`` the
metrics are the per-layer ones, and the aggregated span table is written to
``perfbench/out/``.  Workloads, metrics and the layer predictions are
described in ``perfbench/layers.json``.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import calibration
import workloads

OUT = Path(__file__).resolve().parent / "out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.JOB_LISTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="minimal job list, for self-tests")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                workdir, tiny=args.tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = outcome["result"]
    if outcome["spans"] is not None:
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(outcome["spans"], indent=1) + "\n", encoding="utf-8")
        print(f"span table: {path}")
    print(f"workload {args.workload}, seed {args.seed}: {outcome['passes']} timed passes, "
          f"{outcome['call_samples']} CLI call samples")
    cal = outcome["calibration_ms"]
    print(f"unscaled: wall {outcome['raw_wall_s']} s, setup {outcome['raw_setup_s']} s; "
          f"calibration kernel {min(cal):.3f}..{max(cal):.3f} ms "
          f"(reference {calibration.REF_S * 1000.0} ms)")
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    for reason in outcome["failures"][:20]:
        print(f"  failed: {reason}")
    print(f"  failed_ratio = {result['failed'] / result['attempted']} ratio")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
