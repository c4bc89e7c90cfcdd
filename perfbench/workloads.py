"""The benchmark's workloads: seeded job lists, timed passes, output checks.

Every workload is a closed loop with one client: a fixed job list, built
from the workload seed, is run call after call through stopflow's user
surface in this process (``stopflow.cli.main`` with ``--format json`` and
``--threads 1``; library calls where the CLI has no entry point).  The list
is repeated for the run's seconds, and every pass must reproduce the first
one's outputs.  Checks against ``reference`` run after the timed passes.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import calibration
import reference as refs
from tracer import Tracer, installed_wrappers

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPS = 25

VERIFY_CHECKS = (
    "formula_vs_oracle", "dp_vs_formula", "degenerate_half_cases", "golden_trace",
    "frozen_exact_values", "bounds_sandwich", "observer_invariants", "subset_counting",
    "max_given_components", "conditional_success_vs_states", "continuous_discrete",
    "strategy_dominance",
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("trials_per_s", "1/s"),
    ("call_ms.p50", "ms"),
    ("call_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)

_CALLS = (
    "observer.Observer", "observer.observe", "strategies.run_strategy",
    "strategies.draw_rejection_count", "simulate.simulate", "simulate.run_trial",
    "exact.exact_tables", "exact.v_mh", "oracle.brute_force_win_probability",
    "oracle.dp_optimal_value", "oracle.continuous_win_indicator", "cli.main",
)
_SELF = (
    "observer.observe", "strategies.run_strategy", "strategies.draw_rejection_count",
    "simulate.simulate", "simulate.run_trial", "simulate.continuous_win_rate",
    "exact.exact_tables", "exact.v_mh", "exact.success_probability_k2", "exact.bound_report",
    "oracle.brute_force_win_probability", "oracle.dp_optimal_value", "oracle.info_class_audit",
    "oracle.continuous_win_indicator", "cli.main",
) + tuple(f"verify.{c}" for c in VERIFY_CHECKS)

PER_LAYER = (
    tuple((f"{name}.calls", "count") for name in _CALLS)
    + (("graph.PathPower.calls", "count"), ("exact.compositions.yielded", "count"))
    + tuple((f"{name}.self_s", "s") for name in _SELF)
    + (
        ("simulate.arrivals_per_trial", "arrivals/trial"),
        ("simulate.arrivals_share_of_n", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    )
)


@dataclass(frozen=True)
class Job:
    """One call of the job list.  CLI jobs carry ``argv``; the others are
    library calls with no CLI entry point."""

    kind: str  # simulate | exact | verify | continuous | k2 | bounds
    n: int = 0
    k: int = 0
    argv: tuple[str, ...] = ()
    trials: int = 0
    strategy: str = ""
    seed: int = 0
    epsilon: float = 0.0
    r: int = 0

    @property
    def units(self) -> int:
        """Work units counted by trials_per_s: Monte Carlo trials, else one job."""
        return self.trials if self.trials else 1


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------

def _pair(rng: random.Random, center: int, spread: int) -> tuple[int, int]:
    """Two sizes placed symmetrically about ``center``, so the pass cost
    barely depends on the seed while the inputs do."""
    d = rng.randint(1, max(1, spread))
    return center - d, center + d


def _simulate_job(n, k, strategy, trials, seed, extra=(), **fields) -> Job:
    argv = ("simulate", "--n", str(n), "--k", str(k), "--strategy", strategy,
            "--trials", str(trials), "--seed", str(seed), "--threads", "1") + tuple(extra)
    return Job("simulate", n, k, argv, trials, strategy, seed, **fields)


# mc_slack strata: size class -> trials per call for each k class, sized so
# calls cost about the same (the observer's per-arrival cost grows with n
# and with the component count, which falls as k grows).
_SLACK_TRIALS = {50: (150, 170, 170, 170), 100: (50, 90, 110, 110),
                 200: (16, 35, 46, 46), 400: (5, 16, 22, 30)}


def _slack_ks(n: int, top: int) -> tuple[int, ...]:
    return (2, max(3, n // 10), n // 2, n - 1 - top)


def build_mc_slack(seed: int, tiny: bool) -> list[Job]:
    rng = random.Random(f"mc_slack:{seed}")
    table = {12: (20, 20, 20, 20), 20: (10, 10, 10, 10)} if tiny else _SLACK_TRIALS
    jobs = []
    for center, trials in table.items():
        top = rng.randint(0, 2)
        for n in _pair(rng, center, center // 25):
            for k, t in zip(_slack_ks(n, top), trials):
                jobs.append(_simulate_job(n, k, "tau_n", t, rng.getrandbits(63)))
    rng.shuffle(jobs)
    return jobs


# mc_blind strata: size class -> trials per call for
# (tau_p_star, classical_threshold, first_max), and continuous-model classes.
_BLIND_TRIALS = {500: (170, 120, 300), 1000: (80, 60, 150), 2000: (35, 30, 70)}
_BLIND_K = 3
_CONTINUOUS_TRIALS = {250: 600, 500: 400, 750: 300}
_CONTINUOUS_K = 8


def build_mc_blind(seed: int, tiny: bool) -> list[Job]:
    rng = random.Random(f"mc_blind:{seed}")
    blind = {30: (40, 40, 40)} if tiny else _BLIND_TRIALS
    continuous = {20: 40} if tiny else _CONTINUOUS_TRIALS
    jobs = []
    for center, (t_p, t_c, t_f) in blind.items():
        for n in _pair(rng, center, center // 25):
            eps = refs.rejection_epsilon(n, _BLIND_K)
            p = refs.rejection_p(n, _BLIND_K, eps)
            jobs.append(_simulate_job(n, _BLIND_K, "tau_p_star", t_p, rng.getrandbits(63),
                                      ("--p", repr(p)), epsilon=eps))
            r = int(n / math.e)
            jobs.append(_simulate_job(n, n - 1, "classical_threshold", t_c,
                                      rng.getrandbits(63), ("--r", "auto"), r=r))
            jobs.append(_simulate_job(n, _BLIND_K, "first_max", t_f, rng.getrandbits(63)))
    for center, trials in continuous.items():
        for n in _pair(rng, center, center // 25):
            jobs.append(Job("continuous", n, _CONTINUOUS_K, (), trials, "continuous",
                            rng.getrandbits(63)))
    rng.shuffle(jobs)
    return jobs


# exact_sweep strata: k -> central n.  Large n at small k, where the
# big-integer Fraction sums dominate; moderate n at k >= 6, where the
# composition enumeration dominates.  Centers make calls cost alike.
_EXACT_CENTERS = {1: 480, 2: 200, 3: 88, 4: 54, 5: 44, 6: 37, 7: 32, 8: 29}


def build_exact_sweep(seed: int, tiny: bool) -> list[Job]:
    rng = random.Random(f"exact_sweep:{seed}")
    centers = {k: k + 5 for k in range(1, 9)} if tiny else _EXACT_CENTERS
    jobs = []
    for k, center in centers.items():
        for _ in range(1 if tiny else 2):
            for n in _pair(rng, center, center // 40):
                jobs.append(Job("exact", n, k, ("exact", "--n", str(n), "--k", str(k))))
                jobs.append(Job("bounds", n, k))
                if k == 2:
                    jobs.append(Job("k2", n, k))
    rng.shuffle(jobs)
    return jobs


def build_oracle_verify(seed: int, tiny: bool) -> list[Job]:
    # The suite takes no input, so the seed cannot change it.
    n_max = 5 if tiny else 7
    argv = ("verify", "--n-max", str(n_max))
    if tiny:
        argv += ("--bounds-n", "40")
    return [Job("verify", n_max, 0, argv)]


JOB_LISTS = {
    "mc_slack": build_mc_slack,
    "mc_blind": build_mc_blind,
    "exact_sweep": build_exact_sweep,
    "oracle_verify": build_oracle_verify,
}


# ---------------------------------------------------------------------------
# Set-up and timed passes
# ---------------------------------------------------------------------------

def _import_stopflow():
    for name in [m for m in sys.modules if m == "stopflow" or m.startswith("stopflow.")]:
        del sys.modules[name]
    importlib.import_module("stopflow")
    importlib.import_module("stopflow.cli")


def setup(workload: str, seed: int, tiny: bool, sampler: calibration.Sampler):
    """Import stopflow afresh and build the job list, SETUP_REPS times.

    Returns the median scaled and unscaled set-up times, the job list and
    the stopflow modules.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    make_jobs = JOB_LISTS[workload]
    raw, scaled = [], []
    with sampler:
        for _ in range(SETUP_REPS):
            with sampler.clock() as span:
                _import_stopflow()
                jobs = make_jobs(seed, tiny)
            raw.append(span[0])
            scaled.append(span[0] * sampler.scale())
    mods = SimpleNamespace(**{name: sys.modules[f"stopflow.{name}"]
                              for name in ("cli", "exact", "simulate")})
    where = Path(sys.modules["stopflow"].__file__).resolve()
    if SRC not in where.parents:
        raise RuntimeError(f"stopflow imported from {where}, not from {SRC}")
    # Captured before any tracing wrapper can replace the cached function.
    mods.clear_cache = mods.exact.exact_tables.cache_clear
    return statistics.median(scaled), statistics.median(raw), jobs, mods


@dataclass(frozen=True)
class Call:
    seconds: float
    output: dict | None  # parsed, comparable result; None if the call failed
    error: str = ""
    scale: float = 1.0  # host-speed factor from the calibration kernel

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def _digest(output: dict | None) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True, default=str).encode()).hexdigest()


class Runner:
    def __init__(self, mods, workdir: Path, sampler: calibration.Sampler):
        self.mods = mods
        self.out = workdir / "call.json"
        self.sampler = sampler

    def call(self, job: Job) -> Call:
        if job.argv:
            return self._cli(job)
        return self._api(job)

    def _cli(self, job: Job) -> Call:
        argv = list(job.argv) + ["--format", "json", "--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        self.mods.clear_cache()
        with self.sampler.clock() as span:
            try:
                rc = self.mods.cli.main(argv)
            except Exception as exc:  # a crash is a failed call, not a crashed benchmark
                rc = exc
        seconds = span[0]
        if isinstance(rc, Exception):
            return Call(seconds, None, f"raised {rc!r}")
        if rc != 0 and not (job.kind == "verify" and rc == 2):
            return Call(seconds, None, f"exit code {rc}")
        try:
            doc = json.loads(self.out.read_text(encoding="utf-8"))
            output = _summarize(job, doc["report"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return Call(seconds, None, f"unreadable output: {exc!r}")
        if job.kind == "verify":
            output["rc"] = rc
        return Call(seconds, output)

    def _api(self, job: Job) -> Call:
        mods = self.mods
        error = ""
        with self.sampler.clock() as span:
            try:
                if job.kind == "continuous":
                    result = mods.simulate.continuous_win_rate(job.n, job.k, job.trials, job.seed)
                elif job.kind == "k2":
                    result = mods.exact.success_probability_k2(job.n)
                else:
                    result = mods.exact.bound_report(job.n, job.k)
            except Exception as exc:  # a crash is a failed call, not a crashed benchmark
                error = f"raised {exc!r}"
        if error:
            return Call(span[0], None, error)
        if job.kind == "continuous":
            output = {"wins": result.wins, "trials": result.trials, "n": result.n, "k": result.k}
        elif job.kind == "k2":
            output = {"probability": str(result)}
        else:
            output = {"lower": result.lower, "upper": result.upper, "p": result.p,
                      "epsilon": result.epsilon}
        return Call(span[0], output)

    def run_pass(self, jobs: list[Job]) -> list[Call]:
        """Run the job list; each call's scale comes from the calibration
        kernel timed before, during and after it."""
        calls = []
        with self.sampler:
            for job in jobs:
                call = self.call(job)
                calls.append(replace(call, scale=self.sampler.scale()))
        return calls


def _summarize(job: Job, report: dict) -> dict:
    if job.kind == "simulate":
        return {key: report[key] for key in ("n", "k", "strategy", "trials", "wins")}
    if job.kind == "exact":
        return {"n": report["n"], "k": report["k"],
                "probability": report["probability_fraction"],
                "W": {int(row["m"]): int(row["arrangements"]) for row in report["per_m"]}}
    return {"passed": report["passed"],
            "checks": {c["name"]: c["passed"] for c in report["checks"]},
            "details": {c["name"]: c["detail"] for c in report["checks"]}}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check_exact(job: Job, out: dict, ref: refs.Reference) -> str:
    counts, prob = ref.exact(job.n, job.k)
    if (out["n"], out["k"]) != (job.n, job.k):
        return f"report is for ({out['n']}, {out['k']})"
    if out["W"] != counts:
        bad = sorted(m for m in set(out["W"]) | set(counts) if out["W"].get(m) != counts.get(m))
        return f"W[m] differs from the reference at m={bad[:5]}"
    if out["probability"] != str(prob):
        return f"probability {out['probability']} != reference {prob}"
    return ""


def check_bounds(job: Job, out: dict, ref: refs.Reference) -> str:
    prob = float(ref.probability(job.n, job.k))
    eps = refs.rejection_epsilon(job.n, job.k)
    if not out["lower"] <= prob <= out["upper"]:
        return f"exact {prob} outside bounds [{out['lower']}, {out['upper']}]"
    if out["epsilon"] != eps or not math.isclose(out["p"], refs.rejection_p(job.n, job.k, eps),
                                                 rel_tol=1e-12):
        return f"epsilon {out['epsilon']} / p {out['p']} differ from the reference"
    return ""


def check_k2(job: Job, out: dict, ref: refs.Reference) -> str:
    prob = ref.probability(job.n, 2)
    return "" if out["probability"] == str(prob) else f"k=2 form {out['probability']} != {prob}"


def check_slices(jobs: list[Job], mods, ref: refs.Reference) -> dict[int, str]:
    """V[m, h] from exact_tables against the reference, for the cheapest
    exact job of each k (untimed; CLI output carries only W[m])."""
    cheapest: dict[int, int] = {}
    for i, job in enumerate(jobs):
        if job.kind == "exact" and (job.k not in cheapest or job.n < jobs[cheapest[job.k]].n):
            cheapest[job.k] = i
    reasons = {}
    for i in cheapest.values():
        job = jobs[i]
        tables = mods.exact.exact_tables(job.n, job.k)
        got: dict[int, dict[int, int]] = {}
        for (m, h), v in tables.V.items():
            if v:
                got.setdefault(m, {})[h] = v
        want = {m: refs.slice_counts(job.n, job.k, m) for m in ref.exact(job.n, job.k)[0]}
        if got != want:
            bad = sorted(m for m in set(got) | set(want) if got.get(m) != want.get(m))
            reasons[i] = f"V[m, h] differs from the reference at m={bad[:5]}"
    mods.clear_cache()
    return reasons


def check_verify(job: Job, out: dict, ref: refs.Reference) -> str:
    if out["rc"] != 0 or not out["passed"]:
        failed = [name for name, ok in out["checks"].items() if not ok]
        return f"exit code {out['rc']}, failed checks {failed}"
    if tuple(sorted(out["checks"])) != tuple(sorted(VERIFY_CHECKS)):
        return f"checks run: {sorted(out['checks'])}"
    pairs = job.n * (job.n - 1) // 2
    if not out["details"]["formula_vs_oracle"].startswith(f"{pairs} (n,k) pairs"):
        return f"formula_vs_oracle covered {out['details']['formula_vs_oracle']!r}"
    return ""


def check_simulate_shape(job: Job, out: dict) -> str:
    if (out.get("n"), out.get("k"), out["trials"]) != (job.n, job.k, job.trials):
        return "report does not echo the requested (n, k, trials)"
    if not 0 <= out["wins"] <= job.trials:
        return f"wins {out['wins']} outside 0..{job.trials}"
    return ""


def mc_pools(jobs: list[Job], outputs: list[dict | None], ref: refs.Reference) -> dict:
    """Pool each strategy's calls and test the summed wins against the
    reference.  Returns pool name -> (job indices, failure reason or "")."""
    pools: dict[str, list[int]] = {}
    for i, job in enumerate(jobs):
        if job.trials and outputs[i] is not None:
            pools.setdefault(job.strategy, []).append(i)
    verdicts = {}
    for name, idx in pools.items():
        wins = sum(outputs[i]["wins"] for i in idx)
        if name == "tau_p_star":
            floors = [(jobs[i].trials, refs.rejection_lower_bound(jobs[i].n, jobs[i].k,
                                                                  jobs[i].epsilon)) for i in idx]
            ok = refs.pooled_not_below(wins, floors)
            want = sum(t * p for t, p in floors)
            reason = "" if ok else f"{wins} wins, more than z={refs.Z} below the bound {want:.1f}"
        else:
            expected = [(jobs[i].trials, _mc_reference(jobs[i], ref)) for i in idx]
            ok = refs.pooled_within(wins, expected)
            want = sum(t * p for t, p in expected)
            reason = "" if ok else f"{wins} wins, more than z={refs.Z} from {want:.1f}"
        verdicts[name] = (idx, reason)
    return verdicts


def _mc_reference(job: Job, ref: refs.Reference) -> float:
    if job.strategy in ("tau_n", "continuous"):
        return float(ref.probability(job.n, job.k))
    if job.strategy == "classical_threshold":
        return refs.classical_secretary(job.n, job.r)
    return 1.0 / job.n  # first_max: the first arrival is always maximal


_CHECKS = {"exact": check_exact, "bounds": check_bounds, "k2": check_k2, "verify": check_verify}


def check_outputs(jobs: list[Job], first: list[Call], mods, ref: refs.Reference) -> list[str]:
    """Failure reason per job ("" when correct), from the first pass."""
    reasons = [c.error for c in first]
    outputs = [c.output for c in first]
    for i, job in enumerate(jobs):
        if outputs[i] is None:
            continue
        if job.kind in _CHECKS:
            reasons[i] = _CHECKS[job.kind](job, outputs[i], ref)
        else:
            reasons[i] = check_simulate_shape(job, outputs[i])
    for idx, reason in mc_pools(jobs, outputs, ref).values():
        for i in idx:
            reasons[i] = reasons[i] or reason
    for i, reason in check_slices(jobs, mods, ref).items():
        reasons[i] = reasons[i] or reason
    return reasons


def reproducibility(runner: Runner, jobs: list[Job], first: list[Call]) -> list[str]:
    """Untimed: a repeated call gives identical wins, and so does a small
    call split over two worker processes (the README's contract)."""
    i = next(i for i, job in enumerate(jobs) if job.kind == "simulate")
    job = jobs[i]
    problems = []
    again = runner.call(job)
    if again.output is None or again.output != first[i].output:
        problems.append(f"same seed, different result: {again.output} vs {first[i].output}")
    small = replace(job, trials=min(job.trials, 24))
    argv = list(small.argv)
    argv[argv.index("--trials") + 1] = str(small.trials)
    one = runner.call(replace(small, argv=tuple(argv)))
    argv[argv.index("--threads") + 1] = "2"
    two = runner.call(replace(small, argv=tuple(argv)))
    if one.output is None or two.output is None or one.output["wins"] != two.output["wins"]:
        problems.append(f"--threads 2 disagrees with --threads 1: {two.output} vs {one.output}")
    # Three calls attempted; the mismatch reasons count as failed calls.
    return problems + [""] * (3 - len(problems))


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, jobs: list[Job], untraced_wall: float,
                  traced_wall: float) -> dict[str, float]:
    values: dict[str, float] = {}
    for name in _CALLS:
        values[f"{name}.calls"] = tracer.calls(name)
    for name in ("graph.PathPower.calls", "exact.compositions.yielded"):
        values[name] = tracer.counts[name]
    for name in _SELF:
        values[f"{name}.self_s"] = tracer.self_seconds(name)
    arrivals = tracer.calls("observer.observe", parent="simulate.run_trial")
    trials = tracer.calls("observer.Observer", parent="simulate.run_trial")
    positions = sum(job.trials * job.n for job in jobs if job.strategy == "tau_n")
    values["simulate.arrivals_per_trial"] = arrivals / trials if trials else 0.0
    values["simulate.arrivals_share_of_n"] = arrivals / positions if positions else 0.0
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    return values


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        tiny: bool = False) -> dict:
    """Run one workload; returns the result object and, when traced, the
    aggregated span table under the key ``spans``."""
    sampler = calibration.Sampler()
    setup_s, setup_raw, jobs, mods = setup(workload, seed, tiny, sampler)
    if installed_wrappers():
        raise RuntimeError("tracing wrappers present in an untraced pass")
    runner = Runner(mods, workdir, sampler)

    # A traced run spends half its time on untraced passes, the baseline
    # for the tracing overhead.  No pass starts that would end past the
    # budget, so a pass longer than the budget runs exactly once.
    budget = seconds / 2 if trace else seconds
    passes: list[list[Call]] = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(jobs))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw_walls = [sum(c.seconds for c in calls) for calls in passes]
    walls = [sum(c.scaled for c in calls) for calls in passes]
    timed = len(passes)

    tracer = None
    if trace:
        tracer = Tracer(clock=runner.sampler.clock_s)
        with tracer:
            passes.append(runner.run_pass(jobs))
        if installed_wrappers():
            raise RuntimeError("tracing wrappers left installed")
        traced_wall = sum(c.scaled for c in passes[-1])

    ref = refs.Reference()
    reasons = check_outputs(jobs, passes[0], mods, ref)
    first_digests = [_digest(c.output) for c in passes[0]]
    verdicts = list(reasons)
    for calls in passes[1:]:
        for i, c in enumerate(calls):
            why = c.error or reasons[i]
            if not why and _digest(c.output) != first_digests[i]:
                why = "output differs from the first pass"
            verdicts.append(why)
    if workload.startswith("mc_"):
        verdicts += reproducibility(runner, jobs, passes[0])

    failures = [v for v in verdicts if v]
    cli_ms = [c.scaled * 1000.0 for calls in passes[:timed]
              for job, c in zip(jobs, calls) if job.argv]
    if trace:
        metrics = layer_metrics(tracer, jobs, statistics.median(walls), traced_wall)
        units_of = dict(PER_LAYER)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "trials_per_s": sum(job.units for job in jobs) * len(walls) / sum(walls),
            "call_ms.p50": _percentile(cli_ms, 0.50),
            "call_ms.p90": _percentile(cli_ms, 0.90),
            "peak_rss_mb": peak_rss_mb,
        }
        units_of = dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": len(verdicts),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }
    return {
        "result": result,
        "passes": len(walls),
        "call_samples": len(cli_ms),
        "raw_wall_s": statistics.median(raw_walls),
        "raw_setup_s": setup_raw,
        "calibration_ms": [calibration.REF_S * 1000.0 / c.scale
                           for calls in passes[:timed] for c in calls],
        "failures": failures,
        "spans": tracer.table() if tracer else None,
    }
