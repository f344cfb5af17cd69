"""Command-line interface.

Subcommands: ``test`` (one robust comparison), ``feasibility`` (missing-data
screen), ``power`` (MCAR theory), ``simulate`` (Monte-Carlo sweeps to CSV),
``analyze`` (grouped CSV pipeline with familywise correction).

``test`` and ``analyze`` share one comparison step: the ties-aware robust
report on --support, the whole line without it, and the feasibility screen
of the two samples' (total, observed) counts. Every subcommand but
``simulate`` prints JSON.

Exit codes: 0 the command ran; 2 malformed input; 3 degenerate data.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Any, Sequence

from .distributions import make_distribution
from .exceptions import DegenerateDataError, DomainError
from .multiplicity import holm_adjust
from .power import PowerInputs, asymptotic_class, mcar_power, pair_probs
from .ranks import Sample, Support
from .robust import FeasibilityReport, TestReport, feasibility, robust_test_general
from .simulate import MissingnessSpec, ScenarioSpec, sweep, write_results_csv
from .wmw import Alternative

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_DEGENERATE = 3


def _parse_values(text: str, field: str) -> list[float]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            raise DomainError(f"{field}: cannot parse value {token!r}")
        if math.isnan(value) or math.isinf(value):
            raise DomainError(f"{field}: non-finite value {token!r}")
        out.append(value)
    if not out:
        raise DomainError(f"{field}: no values given")
    return out


def _parse_support(text: str | None) -> Support | None:
    """'lo,hi' with either end empty for no bound there; ',' is the whole line,
    and None no support. An end that is given must be finite."""
    if text is None:
        return None
    try:
        lower, upper = (float(end) if end.strip() else None for end in text.split(","))
    except ValueError:  # not two ends, or an end that is not a number
        raise DomainError(f"support: expected 'lo,hi' (either end may be empty), got {text!r}")
    if not all(end is None or math.isfinite(end) for end in (lower, upper)):
        raise DomainError(f"support: a given end must be finite, got {text!r}")
    return Support(lower=lower, upper=upper)


def _compare(x: Sample, y: Sample, support: Support | None, alpha: float,
             alternative: Alternative) -> tuple[TestReport, FeasibilityReport]:
    """The general robust report of x against y on the support (the whole line
    when None) and the feasibility screen of their (total, observed) counts."""
    report = robust_test_general(x, y, support or Support(), alpha, alternative)
    screen = feasibility(x.total, y.total, x.n_observed, y.n_observed, alpha, alternative)
    return report, screen


def _cmd_test(args: argparse.Namespace) -> int:
    x_values, y_values = _parse_values(args.x, "--x"), _parse_values(args.y, "--y")
    n_total = args.n_total if args.n_total is not None else len(x_values)
    m_total = args.m_total if args.m_total is not None else len(y_values)
    if n_total < len(x_values):
        raise DomainError("--n-total is smaller than the number of observed x values")
    if m_total < len(y_values):
        raise DomainError("--m-total is smaller than the number of observed y values")
    x = Sample(x_values, n_total - len(x_values))
    y = Sample(y_values, m_total - len(y_values))
    report, screen = _compare(x, y, _parse_support(args.support), args.alpha,
                              Alternative.parse(args.alternative))
    payload = {**report.to_dict(), "feasibility": screen.to_dict(), "feasible": screen.feasible}
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_feasibility(args: argparse.Namespace) -> int:
    alternative = Alternative.parse(args.alternative)
    report = feasibility(args.n, args.m, args.n_obs, args.m_obs, args.alpha, alternative)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def _cmd_power(args: argparse.Namespace) -> int:
    dist_x = make_distribution(args.dist_x)
    dist_y = make_distribution(args.dist_y)
    pair = pair_probs(dist_x, dist_y)
    payload: dict[str, Any] = {
        "dist_x": dist_x.spec,
        "dist_y": dist_y.spec,
        "p1": pair.p1,
        "p2": pair.p2,
        "p3": pair.p3,
    }
    if args.limit:
        lam = 1.0 - args.s
        payload["lambda_x"] = payload["lambda_y"] = lam
        payload["classification"] = asymptotic_class(lam, lam, pair.p1).value
    else:
        inputs = PowerInputs(
            n=args.n,
            m=args.m,
            n_obs_x=args.n * (1.0 - args.s),
            n_obs_y=args.m * (1.0 - args.s),
            alpha=args.alpha,
            pair=pair,
        )
        payload.update(
            {"n": args.n, "m": args.m, "s": args.s, "alpha": args.alpha,
             "power": mcar_power(inputs)}
        )
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _parse_scenario_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DomainError(f"scenario line {lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                entries[key.strip().lower()] = value.strip()
    except OSError as exc:
        raise DomainError(f"cannot read scenario file {path}: {exc}")
    return entries


def _scenario_number(key: str, text: str, kind: type) -> Any:
    """kind(text) for a value of the scenario key; an error names the key."""
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"scenario key {key!r}: {text.strip()!r} is not "
                          f"{'an integer' if kind is int else 'a number'}")


def _scenario_from_entries(
    entries: dict[str, str], seed: int
) -> tuple[ScenarioSpec, list[float] | None, list[tuple[int, int]]]:
    """The base scenario, the s list (None without the key) and the (n, m)
    sizes; a side without a mechanism keeps every value."""
    known = {
        "dist_x", "dist_y", "n", "m", "s", "mechanism", "mechanism_x", "mechanism_y",
        "methods", "alpha", "trials", "seed", "alternative", "support",
    }
    for key in entries:
        if key not in known:
            raise DomainError(f"unknown scenario key {key!r}; valid keys: {', '.join(sorted(known))}")
    for required in ("dist_x", "dist_y", "n", "methods"):
        if required not in entries:
            raise DomainError(f"scenario is missing required key {required!r}")

    def numbers(key: str, kind: type) -> list:
        return [_scenario_number(key, tok, kind) for tok in entries[key].split(",")]

    n_list = numbers("n", int)
    m_list = numbers("m", int) if "m" in entries else list(n_list)
    if len(m_list) != len(n_list):
        raise DomainError("n and m lists must have the same length")
    sizes = list(zip(n_list, m_list))
    s_list = numbers("s", float) if "s" in entries else None

    if "mechanism_x" in entries or "mechanism_y" in entries:
        rules = (("mechanism_x", "x_only"), ("mechanism_y", "y_only"))
    else:
        rules = (("mechanism", "both"),)
    missingness = tuple(MissingnessSpec(entries[key], s_list[0] if s_list else 0.0, side)
                        for key, side in rules if key in entries)

    spec = ScenarioSpec(
        dist_x=entries["dist_x"],
        dist_y=entries["dist_y"],
        n=sizes[0][0],
        m=sizes[0][1],
        missingness=missingness,
        methods=tuple(tok.strip() for tok in entries["methods"].split(",") if tok.strip()),
        alpha=_scenario_number("alpha", entries.get("alpha", "0.05"), float),
        trials=_scenario_number("trials", entries.get("trials", "1000"), int),
        seed=seed,
        alternative=entries.get("alternative", "two_sided"),
        # without the key, the support is derived from the distributions
        support=_parse_support(entries.get("support")),
    )
    return spec, s_list, sizes


def _cmd_simulate(args: argparse.Namespace) -> int:
    entries = _parse_scenario_file(args.scenario)
    seed = (args.seed if args.seed is not None
            else _scenario_number("seed", entries.get("seed", "0"), int))
    spec, s_list, sizes = _scenario_from_entries(entries, seed)
    results = sweep(spec, s_values=s_list, sizes=sizes, workers=args.workers)
    write_results_csv(results, args.out)
    rows = sum(len(r.spec.methods) for r in results)
    print(f"wrote {rows} rows to {args.out}")
    return EXIT_OK


def _read_grouped_csv(path: str) -> dict[str, Sample]:
    groups: dict[str, list[float]] = {}
    missing: dict[str, int] = {}
    try:
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["group", "value"]:
                raise DomainError("--data: expected CSV header 'group,value'")
            for lineno, row in enumerate(reader, 2):
                group = (row["group"] or "").strip()
                if not group:
                    raise DomainError(f"--data line {lineno}: empty group label")
                token = (row["value"] or "").strip()
                groups.setdefault(group, [])
                missing.setdefault(group, 0)
                if token == "" or token.upper() == "NA":
                    missing[group] += 1
                else:
                    try:
                        groups[group].append(float(token))
                    except ValueError:
                        raise DomainError(f"--data line {lineno}: bad value {token!r}")
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}")
    samples: dict[str, Sample] = {}
    for group in groups:
        if not groups[group]:
            raise DegenerateDataError(f"group {group!r} has no observed values (all missing)")
        try:
            samples[group] = Sample(groups[group], missing[group])
        except (ValueError, ArithmeticError) as exc:
            raise type(exc)(f"group {group!r}: {exc}") from None
    return samples


def _cmd_analyze(args: argparse.Namespace) -> int:
    samples = _read_grouped_csv(args.data)
    if args.control not in samples:
        raise DomainError(
            f"--control: group {args.control!r} not present; groups: {', '.join(sorted(samples))}"
        )
    if len(samples) < 2:
        raise DomainError("--data must contain at least two groups")
    control = samples[args.control]
    support, alternative = _parse_support(args.support), Alternative.parse(args.alternative)
    comparisons = []
    for group, treated in samples.items():
        if group != args.control:
            try:
                report, screen = _compare(control, treated, support, args.alpha, alternative)
            except (ValueError, ArithmeticError) as exc:
                raise type(exc)(f"group {group!r} vs control {args.control!r}: {exc}") from None
            comparisons.append({"group": group, **report.to_dict(), "feasible": screen.feasible})
    comparisons.sort(key=lambda e: e["group"])
    payload: dict[str, Any] = {
        "control": args.control,
        "alpha": args.alpha,
        "alternative": alternative.value,
        "comparisons": comparisons,
    }
    if args.holm:
        adjusted = holm_adjust([entry["p_max"] for entry in comparisons])
        for entry, adj in zip(comparisons, adjusted):
            entry["p_max_holm"] = adj
            entry["significant_holm"] = adj < args.alpha
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankguard",
        description="Two-sample rank testing that stays valid under arbitrary missing data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    alpha_alt = argparse.ArgumentParser(add_help=False)
    alpha_alt.add_argument("--alpha", type=float, default=0.05)
    alpha_alt.add_argument("--alternative", default="two-sided",
                           choices=["two-sided", "greater", "less"])
    domain = argparse.ArgumentParser(add_help=False)
    domain.add_argument("--support", help="'lo,hi' closes the domain, either end empty "
                        "for no bound; the default is the whole line (','). A "
                        "negative lower end needs '=': --support=-1,5")

    p_test = sub.add_parser("test", parents=[alpha_alt, domain],
                            help="robust two-sample test on one dataset "
                                 "(a file of values goes through analyze --data)")
    p_test.add_argument("--x", required=True, help="comma-separated observed values for "
                        "sample x; a list that starts with '-' needs '=': --x=-1.5,2")
    p_test.add_argument("--y", required=True, help="comma-separated observed values for "
                        "sample y; a list that starts with '-' needs '=': --y=-1.5,2")
    p_test.add_argument("--n-total", type=int, help="total size of sample x incl. missing")
    p_test.add_argument("--m-total", type=int, help="total size of sample y incl. missing")
    p_test.set_defaults(func=_cmd_test)

    p_feas = sub.add_parser("feasibility", parents=[alpha_alt],
                            help="can this much missing data ever be significant?")
    p_feas.add_argument("--n", type=int, required=True)
    p_feas.add_argument("--m", type=int, required=True)
    p_feas.add_argument("--n-obs", type=int, required=True)
    p_feas.add_argument("--m-obs", type=int, required=True)
    p_feas.set_defaults(func=_cmd_feasibility)

    p_power = sub.add_parser("power", help="theoretical power under MCAR")
    p_power.add_argument("--dist-x", required=True, help="e.g. normal(0,1)")
    p_power.add_argument("--dist-y", required=True, help="e.g. normal(1,1)")
    p_power.add_argument("--n", type=int, default=100)
    p_power.add_argument("--m", type=int, default=100)
    p_power.add_argument("--s", type=float, default=0.0, help="missing fraction per sample")
    p_power.add_argument("--alpha", type=float, default=0.05)
    p_power.add_argument("--limit", action="store_true",
                         help="report the large-sample 0/1 classification instead")
    p_power.set_defaults(func=_cmd_power)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo sweep to CSV")
    p_sim.add_argument("--scenario", required=True, help="key = value scenario file")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="simulation seed (default: the scenario file's seed, else 0)")
    p_sim.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_an = sub.add_parser("analyze", parents=[alpha_alt, domain],
                          help="group-vs-control analysis of a CSV dataset")
    p_an.add_argument("--data", required=True, help="CSV with header group,value; NA = missing")
    p_an.add_argument("--control", required=True, help="label of the control group")
    p_an.add_argument("--holm", action="store_true", help="familywise Holm correction")
    p_an.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:  # DomainError and DegenerateDataError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE if isinstance(exc, DegenerateDataError) else EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
