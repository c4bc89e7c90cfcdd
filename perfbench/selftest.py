"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced; checks that every
metric named in BENCHMARK.json is printed and nothing fails; that planted
wrong outputs are caught by the checks; that traced counts repeat exactly;
and that the reference counts agree with a direct polynomial expansion.
Exits non-zero if any check fails.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import calibration
import reference as refs
import workloads
from run import main as bench_main
from tracer import Tracer, installed_wrappers

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
COUNTS = ("calls", "yielded")

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def poly_counts(n: int, k: int) -> dict[int, dict[int, int]]:
    """V[m, h] by multiplying out (1 + ... + x^(k-1) + y x^k)^(m-1)."""
    out = {}
    for m in range(2, n + 1):
        poly = {(0, 0): 1}  # (x degree, y degree) -> coefficient
        for _ in range(m - 1):
            nxt: dict[tuple[int, int], int] = {}
            for (dx, dy), c in poly.items():
                for step in range(k + 1):
                    key = (dx + step, dy + (step == k))
                    nxt[key] = nxt.get(key, 0) + c
            poly = nxt
        row = {h: c for (dx, h), c in poly.items() if dx == n - m and c}
        if row:
            out[m] = row
    return out


def test_reference() -> None:
    for n in range(2, 10):
        for k in range(1, n):
            direct = poly_counts(n, k)
            counts = refs.arrangement_counts(n, k)
            expect(counts == {m: sum(row.values()) for m, row in direct.items()},
                   f"W[m] closed form != polynomial expansion at ({n}, {k})")
            for m, row in direct.items():
                expect(refs.slice_counts(n, k, m) == row,
                       f"V[m, h] closed form != polynomial expansion at ({n}, {k}, {m})")
            if n >= 3 and k >= n - 2:
                expect(refs.probability_from_counts(n, counts) == Fraction(1, 2),
                       f"reference ({n}, {k}) is not 1/2")
    for (n, k), want in {(5, 2): Fraction(9, 20), (6, 2): Fraction(13, 30)}.items():
        expect(refs.Reference().probability(n, k) == want, f"reference ({n}, {k}) != {want}")
    expect(math.isclose(refs.classical_secretary(3, 1), 0.5), "classical secretary at n=3")


def run(workload: str, trace: bool) -> dict:
    """The result line run.py prints for a tiny, single-pass run."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        rc = bench_main(["--workload", workload, "--seed", "5", "--seconds", "0",
                         "--trace", str(int(trace)), "--tiny"])
    expect(rc == 0, f"{workload}: run.py exited with {rc}")
    return json.loads(printed.getvalue().splitlines()[-1])


def test_workloads() -> None:
    end_to_end = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    expect(end_to_end == dict(workloads.END_TO_END), "BENCHMARK.json end_to_end != END_TO_END")
    expect(per_layer == dict(workloads.PER_LAYER), "BENCHMARK.json per_layer != PER_LAYER")
    predicted = {m for p in LAYERS["predictions"] for m in p["metrics"]}
    expect(predicted == set(per_layer), "layers.json predictions do not cover per_layer")
    expect({w["name"] for w in MANIFEST["workloads"]} == set(workloads.JOB_LISTS),
           "BENCHMARK.json workloads != JOB_LISTS")

    for workload in workloads.JOB_LISTS:
        plain = run(workload, False)
        expect(plain["failed"] == 0 and plain["correct"], f"{workload}: {plain}")
        got = {name: m["unit"] for name, m in plain["metrics"].items()}
        expect(got == end_to_end, f"{workload}: end-to-end metrics {sorted(got)}")
        expect(all(m["value"] > 0 for m in plain["metrics"].values()),
               f"{workload}: an end-to-end metric is not positive")

        traced = [run(workload, True) for _ in range(2)]
        for res in traced:
            expect(res["failed"] == 0, f"{workload} traced: {res}")
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            expect(got == per_layer, f"{workload}: per-layer metrics {sorted(got)}")
        counts = [{n: m["value"] for n, m in res["metrics"].items()
                   if n.rsplit(".", 1)[-1] in COUNTS} for res in traced]
        expect(counts[0] == counts[1], f"{workload}: traced counts differ between runs")
        observes = counts[0]["observer.observe.calls"]
        if workload in ("mc_blind", "exact_sweep"):
            expect(observes == 0, f"{workload}: observer.observe.calls = {observes}")
        else:
            expect(observes > 0, f"{workload}: observer idle")
        expect(not installed_wrappers(), f"{workload}: wrappers left installed")


def test_tracer_restores() -> None:
    import stopflow.cli
    import stopflow.verify

    before = (stopflow.cli.main, stopflow.verify.brute_force_win_probability,
              stopflow.cli.exact_tables, stopflow.observer.Observer.observe)
    with Tracer():
        expect(stopflow.verify.brute_force_win_probability is not before[1],
               "from-import binding in stopflow.verify not wrapped")
        expect(stopflow.cli.exact_tables is not before[2],
               "from-import binding in stopflow.cli not wrapped")
    after = (stopflow.cli.main, stopflow.verify.brute_force_win_probability,
             stopflow.cli.exact_tables, stopflow.observer.Observer.observe)
    expect(all(a is b for a, b in zip(before, after)), "tracer did not restore originals")


def test_planted_errors(workdir: Path) -> None:
    """Each check must reject a wrong value planted into a real output."""
    ref = refs.Reference()
    sampler = calibration.Sampler()
    _, _, _, mods = workloads.setup("exact_sweep", 5, True, sampler)
    runner = workloads.Runner(mods, workdir, sampler)

    job = workloads.Job("exact", 12, 3, ("exact", "--n", "12", "--k", "3"))
    out = runner.call(job).output
    expect(workloads.check_exact(job, out, ref) == "", "a correct exact output was rejected")
    m = min(out["W"])
    expect(workloads.check_exact(job, {**out, "W": {**out["W"], m: out["W"][m] + 1}}, ref) != "",
           "off-by-one W[m] not caught")
    expect(workloads.check_exact(job, {**out, "probability": "1/3"}, ref) != "",
           "wrong probability not caught")

    true_tables = mods.exact.exact_tables(12, 3)
    bad_v = dict(true_tables.V)
    key = next(iter(bad_v))
    bad_v[key] += 1
    fake = SimpleNamespace(exact=SimpleNamespace(exact_tables=lambda n, k: replace(true_tables,
                                                                                    V=bad_v)),
                           clear_cache=lambda: None)
    expect(workloads.check_slices([job], fake, ref) != {}, "off-by-one V[m, h] not caught")

    k2 = workloads.Job("k2", 12, 2)
    expect(workloads.check_k2(k2, {"probability": str(ref.probability(12, 2) + 1)}, ref) != "",
           "wrong k=2 value not caught")
    bounds = workloads.Job("bounds", 12, 3)
    good = runner.call(bounds).output
    expect(workloads.check_bounds(bounds, good, ref) == "", "correct bounds rejected")
    expect(workloads.check_bounds(bounds, {**good, "upper": 0.0}, ref) != "",
           "bound below the exact value not caught")

    for workload in ("mc_slack", "mc_blind"):
        jobs = workloads.JOB_LISTS[workload](5, True)
        outputs = [runner.call(j).output for j in jobs]
        verdicts = workloads.mc_pools(jobs, outputs, ref)
        expect(all(reason == "" for _, reason in verdicts.values()),
               f"{workload}: correct Monte Carlo output rejected: {verdicts}")
        # At 20x the tiny trial counts (the order of a full run), a win
        # rate half the bound, or 1.5x the reference plus 0.05, is caught.
        big = [replace(j, trials=j.trials * 20) for j in jobs]
        for name in verdicts:
            planted = []
            for j, o in zip(big, outputs):
                if j.strategy == "tau_p_star":
                    rate = 0.5 * refs.rejection_lower_bound(j.n, j.k, j.epsilon)
                else:
                    rate = min(1.0, 1.5 * workloads._mc_reference(j, ref) + 0.05)
                planted.append(dict(o, wins=round(rate * j.trials)) if j.strategy == name else o)
            _, reason = workloads.mc_pools(big, planted, ref)[name]
            expect(reason != "", f"{workload}: planted wins for {name} not caught")

    verify = workloads.build_oracle_verify(5, True)[0]
    good = runner.call(verify).output
    expect(workloads.check_verify(verify, good, ref) == "", "passing verify output rejected")
    bad = {**good, "rc": 2, "passed": False,
           "checks": {**good["checks"], "golden_trace": False}}
    expect(workloads.check_verify(verify, bad, ref) != "", "failed verify check not caught")


def main() -> int:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        for test in (test_reference, test_workloads, test_tracer_restores,
                     lambda: test_planted_errors(workdir)):
            test()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
