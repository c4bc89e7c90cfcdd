"""Command-line harness: exact values, bounds, simulation, verification,
scaling sweeps, and observation traces.

Subcommands: ``exact``, ``simulate``, ``verify``, ``scaling``, ``trace``,
``bounds``.  Every subcommand writes text or JSON, and ``exact``,
``simulate`` and ``scaling`` also CSV.  JSON and CSV outputs embed the tool
version, the effective configuration, the seed, and the exact command line,
so every file is reproducible from its own header.  Exit codes: 0 success,
1 usage error, 2 verification failure, 3 resource guard.
"""
from __future__ import annotations

import argparse
import dataclasses
import decimal
import functools
import json
import math
import os
import shlex
import sys
from fractions import Fraction
from itertools import chain
from typing import Iterable

from . import __version__
from .exact import bound_report, exact_tables, success_probability_exact
from .graph import PathPower
from .observer import Observer
from .oracle import ResourceGuardError
from .simulate import _MASK64, simulate
from .strategies import KINDS, Strategy, default_threshold
from .verify import verify_all

SEED_ENV_VAR = "STOPFLOW_SEED"

SIMULATE_CSV_HEADER = "n,k,strategy,trials,wins,estimate,stderr,ci_lo,ci_hi,seed"
SCALING_CSV_HEADER = "n,k,p_exact,p_decimal,scaled,upper_bound,lower_bound,best_epsilon"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own the exit codes
        raise UsageError(message)


def fraction_decimal(value: Fraction, digits: int = 20) -> str:
    """Decimal rendering with the stated number of significant digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = decimal.ROUND_HALF_EVEN
        return str(decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator))


def parse_grid(spec: str, what: str) -> list[int]:
    """Parse '12', '10..200', or '10..200:10' into a list of values."""
    try:
        if ".." not in spec:
            return [int(spec)]
        lo_part, rest = spec.split("..", 1)
        step = 1
        if ":" in rest:
            hi_part, step_part = rest.split(":", 1)
            step = int(step_part)
        else:
            hi_part = rest
        lo, hi = int(lo_part), int(hi_part)
        if step < 1 or hi < lo:
            raise ValueError
        return list(range(lo, hi + 1, step))
    except ValueError:
        raise UsageError(f"bad {what} specification {spec!r}; expected N, A..B, or A..B:STEP")


def _require(args, name: str):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise UsageError(f"missing required option --{name}")
    return value


def _to_int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise UsageError(f"bad integer for {what}: {value!r}")


def _to_float(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise UsageError(f"bad number for {what}: {value!r}")


def _resolve_seed(args) -> int:
    source, value = "--seed", args.seed
    if value is None:
        source, value = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR)
    if value is None:
        return 0
    seed = _to_int(value, source)
    if not 0 <= seed <= _MASK64:
        raise UsageError(f"{source} must lie in 0..2**64-1, got {seed}")
    return seed


def _resolve_strategy(args, n: int, seed: int) -> Strategy:
    kind = _require(args, "strategy")
    if kind not in KINDS:
        raise UsageError(f"unknown strategy {kind!r}; expected one of {', '.join(KINDS)}")
    for flag, owner in (("p", "tau_p_star"), ("r", "classical_threshold")):
        if kind != owner and getattr(args, flag) is not None:
            raise UsageError(f"--{flag} applies only to --strategy {owner}, not {kind}")
    if kind == "tau_p_star":
        p = _to_float(_require(args, "p"), "--p")
        if not 0.0 <= p <= 1.0:
            raise UsageError(f"--p must lie in [0, 1], got {p}")
        return Strategy.tau_p_star(p, rng_seed=seed)
    if kind == "classical_threshold":
        r = _require(args, "r")
        r_val = default_threshold(n) if r == "auto" else _to_int(r, "--r")
        if r_val < 0:
            raise UsageError(f"--r must be >= 0, got {r_val}")
        return Strategy.classical_threshold(r_val)
    return Strategy(kind=kind)


# ---------------------------------------------------------------------------
# Subcommands.  Each computes its result once and returns it as a
# CommandResult; ``main`` renders the one format asked for.
# ---------------------------------------------------------------------------

# (config, JSON payload, text lines, CSV lines or None where CSV is not offered)
CommandResult = tuple[dict, dict, Iterable[str], Iterable[str] | None]


def _n_k(args) -> tuple[int, int]:
    return _to_int(_require(args, "n"), "--n"), _to_int(_require(args, "k"), "--k")


def _epsilon(args) -> float | None:
    return None if args.epsilon is None else _to_float(args.epsilon, "--epsilon")


def _csv_row(record: dict, header: str) -> str:
    return ",".join(str(record[key]) for key in header.split(","))


def cmd_exact(args) -> CommandResult:
    n, k = _n_k(args)
    tabs = exact_tables(n, k)
    prob = tabs.probability
    prob_decimal = fraction_decimal(prob)
    terms = [(m, w, Fraction(w, m * math.comb(n, m))) for m, w in sorted(tabs.W.items())]
    payload = {
        "report": {
            "n": n,
            "k": k,
            "probability_fraction": str(prob),
            "probability_decimal": prob_decimal,
            "per_m": [{"m": m, "arrangements": w, "term_fraction": str(term)}
                      for m, w, term in terms],
        }
    }
    # Lazy lines: a term's decimal is worked out only for the format asked for.
    text = chain(
        [f"P[win] for n={n}, k={k}: {prob} = {prob_decimal}", "", "m  arrangements  term"],
        (f"{m:>3}  {w:>12}  {term} = {fraction_decimal(term)}" for m, w, term in terms),
    )
    csv = chain(
        [f"# probability {prob} = {prob_decimal}", "m,arrangements,term_fraction,term_decimal"],
        (f"{m},{w},{term},{fraction_decimal(term)}" for m, w, term in terms),
    )
    return {"n": n, "k": k}, payload, text, csv


def cmd_simulate(args) -> CommandResult:
    n, k = _n_k(args)
    trials = _to_int(args.trials, "--trials")
    if trials < 1:
        raise UsageError(f"--trials must be >= 1, got {trials}")
    threads = _to_int(args.threads, "--threads")
    if threads < 1:
        raise UsageError(f"--threads must be >= 1, got {threads}")
    seed = _resolve_seed(args)
    strategy = _resolve_strategy(args, n, seed)
    PathPower(n, k)  # validate early so bad (n, k) is a usage error

    rep = simulate(n, k, strategy, trials, seed, threads=threads)
    report = dataclasses.asdict(rep)
    config = {"n": n, "k": k, "strategy": strategy.describe(), "trials": trials,
              "seed": seed, "threads": threads}
    text = [
        f"strategy {rep.strategy} on n={rep.n}, k={rep.k}: "
        f"{rep.wins}/{rep.trials} wins, estimate {rep.estimate:.6f} "
        f"(stderr {rep.stderr:.6f}, 95% CI [{rep.ci_lo:.6f}, {rep.ci_hi:.6f}], seed {rep.seed})"
    ]
    csv = [SIMULATE_CSV_HEADER, _csv_row(report, SIMULATE_CSV_HEADER)]
    return config, {"report": report}, text, csv


def cmd_verify(args) -> CommandResult:
    n_max = _to_int(args.n_max, "--n-max")
    bounds_n = _to_int(args.bounds_n, "--bounds-n")
    report = verify_all(n_max=n_max, skip_dp=args.skip_dp, bounds_max_n=bounds_n)
    config = {"n_max": n_max, "skip_dp": args.skip_dp, "bounds_n": bounds_n}
    text = [f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}" for c in report.checks]
    text.append("verdict: " + ("all checks passed" if report.passed else "FAILURES present"))
    return config, {"report": dataclasses.asdict(report)}, text, None


def cmd_scaling(args) -> CommandResult:
    k_grid = parse_grid(_require(args, "k"), "--k")
    n_grid = parse_grid(_require(args, "n"), "--n")
    epsilon = _epsilon(args)
    rows = []
    skipped = []
    for k in k_grid:
        for n in n_grid:
            if k >= n:
                skipped.append({"n": n, "k": k, "reason": "k >= n"})
                continue
            p = success_probability_exact(n, k)
            scaled = n ** (1.0 / (k + 1)) * float(p)
            rep = bound_report(n, k, epsilon) if k < n - 2 else None
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "p_exact": str(p),
                    "p_decimal": fraction_decimal(p),
                    "scaled": scaled,
                    "upper_bound": rep.upper if rep else 0.5,
                    "lower_bound": rep.lower if rep else "",
                    "best_epsilon": rep.epsilon if rep else "",
                }
            )
    config = {"k": args.k, "n": args.n, "epsilon": "grid-best" if epsilon is None else epsilon}
    skips = [f"skipped n={s['n']} k={s['k']} ({s['reason']})" for s in skipped]
    text = skips + [
        f"n={row['n']} k={row['k']} p={row['p_exact']} ({row['p_decimal']}) "
        f"scaled={row['scaled']:.6f} upper={row['upper_bound']} lower={row['lower_bound']}"
        for row in rows
    ]
    csv = [SCALING_CSV_HEADER, *("# " + line for line in skips)]
    csv += [_csv_row(row, SCALING_CSV_HEADER) for row in rows]
    return config, {"rows": rows, "skipped": skipped}, text, csv


def _read_permutations(args, n: int) -> list[tuple[int, ...]]:
    specs = []
    if args.perm is not None:
        specs.append(args.perm)
    if args.perm_file is not None:
        try:
            with open(args.perm_file, encoding="utf-8") as fh:
                specs.extend(line for line in (ln.strip() for ln in fh) if line and not line.startswith("#"))
        except OSError as exc:
            raise ValueError(f"cannot read --perm-file: {exc}")
    if not specs:
        raise UsageError("trace needs --perm or --perm-file")
    perms = []
    for spec in specs:
        try:
            perm = tuple(int(tok) for tok in spec.split())
        except ValueError:
            raise UsageError(f"malformed permutation {spec!r}")
        if sorted(perm) != list(range(1, n + 1)):
            raise UsageError(f"permutation {spec!r} is not a permutation of 1..{n}")
        perms.append(perm)
    return perms


def _trace_one(g: PathPower, perm: tuple[int, ...]) -> dict:
    obs = Observer(g)
    steps = []
    stop_index = None
    for pos in perm:
        event = obs.observe(pos)
        comps = [
            {"offsets": list(view.offsets), "inner_missing": view.inner_missing}
            for view in obs.components()
        ]
        fires = stop_index is None and event.condition_met and event.is_max
        if fires:
            stop_index = event.t
        steps.append(
            {
                "t": event.t,
                "vertex": pos,
                "components": comps,
                "component_count": event.component_count,
                "pending_inner": event.pending_inner,
                "slack": event.slack,
                "is_max": event.is_max,
                "condition_met": event.condition_met,
                "stop": fires,
            }
        )
    if stop_index is None:
        stop_index = g.n
    chosen = perm[stop_index - 1]
    return {"permutation": list(perm), "steps": steps, "stop_index": stop_index,
            "chosen": chosen, "win": chosen == 1}


def cmd_trace(args) -> CommandResult:
    n, k = _n_k(args)
    g = PathPower(n, k)
    traces = [_trace_one(g, perm) for perm in _read_permutations(args, n)]
    text = []
    for trace in traces:
        if text:
            text.append("")
        text.append("order: " + " ".join(str(v) for v in trace["permutation"]))
        for step in trace["steps"]:
            comps = " ".join(
                "(" + ",".join(str(o) for o in comp["offsets"]) + ")"
                for comp in step["components"]
            )
            mark = "  <-- stop" if step["stop"] else ""
            text.append(
                f"t={step['t']}: arrives v{step['vertex']}  "
                f"c={step['component_count']} b={step['pending_inner']} slack={step['slack']} "
                f"max={'yes' if step['is_max'] else 'no'} "
                f"cond={'yes' if step['condition_met'] else 'no'}  comps={comps}{mark}"
            )
        outcome = "WIN" if trace["win"] else "LOSS"
        text.append(f"stopped at t={trace['stop_index']} on v{trace['chosen']}: {outcome}")
    return {"n": n, "k": k}, {"traces": traces}, text, None


def cmd_bounds(args) -> CommandResult:
    n, k = _n_k(args)
    epsilon = _epsilon(args)
    rep = bound_report(n, k, epsilon)
    config = {"n": n, "k": k, "epsilon": "grid-best" if epsilon is None else epsilon}
    text = [
        f"bounds for n={rep.n}, k={rep.k}:",
        f"  lower (rejection rule, epsilon={rep.epsilon}, p={rep.p:.6f}): {rep.lower:.6f}",
        f"  upper (Beta integral): {rep.upper:.6f}",
        f"  scaled-limit constant: {rep.asymptotic_constant:.6f}",
    ]
    return config, {"report": dataclasses.asdict(rep)}, text, None


def _render(args, result: CommandResult) -> str:
    """The JSON envelope, the CSV provenance block and rows, or the text."""
    config, payload, text, csv = result
    config = {"mode": args.mode, **config, "format": args.format}
    command = "stopflow " + " ".join(shlex.quote(a) for a in args._argv)
    if args.format == "json":
        doc = {"tool": {"name": "stopflow", "version": __version__},
               "command": command, "config": config, **payload}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.format == "csv":
        text = [f"# stopflow {__version__}",
                *(f"# config {key}={config[key]}" for key in sorted(config)),
                f"# command {command}", *csv]
    return "\n".join(text) + "\n"


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

# Every flag but --out, --format and --config, with its argparse settings.
_FLAGS = {
    "n": {"help": "vertex count, or a grid A..B or A..B:STEP where allowed"},
    "k": {"help": "power, or a grid where allowed"},
    "seed": {"help": f"64-bit master seed (fallback: ${SEED_ENV_VAR}, then 0)"},
    "trials": {"default": "10000", "help": "Monte Carlo trial count"},
    "strategy": {"help": "one of " + ", ".join(KINDS)},
    "p": {"help": "coin bias for tau_p_star"},
    "r": {"help": "rejection count for classical_threshold, or 'auto'"},
    "threads": {"default": "1", "help": "worker processes for simulation, at most one per CPU"},
    "epsilon": {"help": "epsilon for the analytic lower bound"},
    "n-max": {"default": "8", "help": "enumerate arrival orders up to this n"},
    "skip-dp": {"action": "store_true", "help": "skip backward-induction checks"},
    "bounds-n": {"default": "200", "help": "largest n for the bounds sandwich"},
    "perm": {"help": "whitespace-separated 1-based vertex indices"},
    "perm-file": {"help": "file with one permutation per line"},
}

# (mode, handler, help, the flags its handler reads)
_SUBCOMMANDS = (
    ("exact", cmd_exact, "exact success probability and its per-m breakdown", ("n", "k")),
    ("simulate", cmd_simulate, "Monte Carlo estimate for one strategy",
     ("n", "k", "seed", "trials", "strategy", "p", "r", "threads")),
    ("verify", cmd_verify, "run the oracle verification suite", ("n-max", "skip-dp", "bounds-n")),
    ("scaling", cmd_scaling, "exact values and bounds over an n-grid", ("n", "k", "epsilon")),
    ("trace", cmd_trace, "step-by-step observation trace of arrival orders",
     ("n", "k", "perm", "perm-file")),
    ("bounds", cmd_bounds, "analytic lower/upper bounds for one (n, k)", ("n", "k", "epsilon")),
)
_CSV_MODES = ("exact", "simulate", "scaling")


def _formats(mode: str) -> tuple[str, ...]:
    return ("csv", "json", "text") if mode in _CSV_MODES else ("json", "text")


@functools.cache
def _build_parser() -> _Parser:
    # Shared after the first main call: parse_args only fills a new namespace.
    parser = _Parser(prog="stopflow", description=__doc__)
    parser.add_argument("--version", action="version", version=f"stopflow {__version__}")
    subs = parser.add_subparsers(dest="mode", required=True)
    for mode, func, help_text, flags in _SUBCOMMANDS:
        # No abbreviations: verify --n must not pass for --n-max.
        sub = subs.add_parser(mode, help=help_text, allow_abbrev=False)
        for flag in flags:  # argparse rejects any other subcommand's flag
            sub.add_argument("--" + flag, **_FLAGS[flag])
        sub.add_argument("--out", help="write output to this path instead of stdout")
        sub.add_argument("--format", choices=_formats(mode), default="text")
        sub.add_argument("--config", help="flat key=value file with defaults for these flags")
        sub.set_defaults(func=func)
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    return values


# A switch takes no value, so a config file cannot set one.
_CONFIG_FLAG_KEYS = {"out", "format"} | {
    flag.replace("-", "_") for flag, spec in _FLAGS.items() if "action" not in spec
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        args._argv = argv
        if args.config:
            file_values = _load_config_file(args.config)
            unknown = set(file_values) - _CONFIG_FLAG_KEYS
            if unknown:
                raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
            given = {tok.split("=", 1)[0].lstrip("-").replace("-", "_")
                     for tok in argv if tok.startswith("--")}
            for key, value in file_values.items():
                if key not in given and hasattr(args, key):
                    setattr(args, key, value)
            if args.format not in _formats(args.mode):
                raise UsageError(f"bad format {args.format!r} for {args.mode}; "
                                 f"expected one of {', '.join(_formats(args.mode))}")
        result = args.func(args)
    except UsageError as exc:
        print(f"stopflow: usage error: {exc}", file=sys.stderr)
        return 1
    except ResourceGuardError as exc:
        print(f"stopflow: resource guard: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"stopflow: error: {exc}", file=sys.stderr)
        return 1
    output = _render(args, result)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        except OSError as exc:
            print(f"stopflow: error: cannot write --out: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(output)
    return 2 if args.mode == "verify" and not result[1]["report"]["passed"] else 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
