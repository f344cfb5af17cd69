"""Differential run: this tree's rankguard against another tree's, on one
seeded stream of instances.

    python3 tools/differential.py --parent <tree> [--instances N] [--seed S]

<tree> is a checkout of another commit, for example one made with
``git worktree add <dir> HEAD^``. Each tree's ``src/`` is imported in its own
subprocess, which runs this script in emit mode (``--emit <src>``) and prints
one JSON line per result: the instance, the field, a sha256 digest of the
result's text and the start of that text. Both subprocesses run this file, so
the instances and the calls are the same; only the library differs.

The instances cycle over the three alternatives and four supports (bounded
[0, 5], closed below at 0, closed above at 5, unbounded). Their values are
small integer grids (heavy ties, also on the endpoints), continuous values
with ties only on the endpoints, one repeated value (sigma2_min = 0) or
values outside the support (also signed zeros, inf and nan). A side is
sometimes entirely missing, alpha is log-uniform in [1e-6, 0.999], and one
instance in eight puts alpha within two ulps of the p_max the library
reports at alpha = 0.05. Fields:

    report_distinct, report_general   repr of the TestReport
    p_value_bounds                    (p_low, p_high, same_sign) on the data
    p_value_bounds_synthetic          the same on random StatBounds and
                                      VarBounds with n, m up to 10^6
    boundary_counts                   on the samples' observed values
    wmw_test                          on the observed values, unsorted
    tie_corrected_variance            at (n', m') from tie_profile of the
                                      pooled observed values
    impute_mean, impute_hot_deck      both completed samples, as lists of
                                      Python floats, so that a list and an
                                      array compare by value (every bit and
                                      the sign of zero included)
    cli_test                          exit code and output of `rankguard test`
                                      (--support on every other instance, the
                                      whole line on the rest)
    cli_analyze                       the same of `rankguard analyze` on a CSV
                                      holding the two sides as groups a and b,
                                      one NA row per missing value
    simulate_w1, simulate_w2          exit code and CSV bytes of `rankguard
                                      simulate --seed 7` on the sim_methods
                                      scenario (100 trials) at 1 and 2 workers
    simulate_mcar_w1, simulate_mcar_w2  the same on normal(0,1) against
                                      normal(0.5,1), n = m = 20, MCAR at
                                      s = 0.1 and 0.3, all six methods:
                                      continuous data, where ignore and
                                      proposed_ties see no ties
    simulate_x_greater_w1, ...        the same on normal(0,1) against
    simulate_x_less_w2                normal(0.3,1), MCAR, proposed and
                                      proposed_ties, one-sided at alpha = 0.7,
                                      where the rejection half-line crosses
                                      the mean; at s = 0 the interval is one
                                      point, and the cell n = 1, s = 0.6
                                      deletes the only x value of every trial

A call that raises records its exception type and message, so error messages
are compared too.

A commit that changes an output on purpose declares it in
tools/expected_differences.json, a JSON list of entries

    {"field": "<field>", "kind": "may differ", "reason": "<why>"}

An entry declares every difference in its field. It applies only when the
parent tree's copy of the file lacks the same entry (a parent without the
file has none), so an entry covers the commit that adds it and no later one.

The run prints, per field, how many results were compared, how many differ
undeclared and how many declared, then the exit codes this tree's commands
gave, and the first instance with an undeclared difference. Exit status: 0
when no difference is undeclared, 1 when one is, 2 when an entry names a
field neither tree emits or a kind other than "may differ".
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
THIS_SRC = HERE.parent / "src"
DECLARATIONS = Path("tools") / "expected_differences.json"

ALTERNATIVES = ("two_sided", "x_greater", "x_less")
CLI_ALTERNATIVES = {"two_sided": "two-sided", "x_greater": "greater", "x_less": "less"}
SUPPORTS = ((0.0, 5.0), (0.0, None), (None, 5.0), (None, None))
STYLES = ("grid", "grid", "boundary", "continuous", "single", "outside")
ONE_SIDED = (
    "dist_x = normal(0,1)\ndist_y = normal(0.3,1)\nn = 1,30\nm = 4,30\n"
    "mechanism = mcar\ns = 0,0.1,0.6\nmethods = proposed,proposed_ties\n"
    "alpha = 0.7\ntrials = 100\n"
)
SIM_SCENARIOS = {  # field prefix -> scenario file
    "simulate": (
        "dist_x = poisson(2)\ndist_y = poisson(2)\nn = 100\nm = 100\n"
        "mechanism_x = mnar_positive\ns = 0.05,0.1,0.2\n"
        "methods = proposed,proposed_ties,ignore,mean_impute,hot_deck,oracle\n"
        "trials = 100\n"
    ),
    "simulate_mcar": (
        "dist_x = normal(0,1)\ndist_y = normal(0.5,1)\nn = 20\nm = 20\n"
        "mechanism = mcar\ns = 0.1,0.3\n"
        "methods = proposed,proposed_ties,ignore,mean_impute,hot_deck,oracle\n"
        "trials = 100\n"
    ),
    "simulate_x_greater": ONE_SIDED + "alternative = x_greater\n",
    "simulate_x_less": ONE_SIDED + "alternative = x_less\n",
}


def _values(rng: random.Random, style: str, count: int) -> list[float]:
    if style == "grid":
        return [float(rng.randint(0, 5)) for _ in range(count)]
    if style == "boundary":
        return [rng.choice((0.0, 5.0)) if rng.random() < 0.3 else rng.uniform(0.0, 5.0)
                for _ in range(count)]
    if style == "continuous":
        return [rng.uniform(0.0, 5.0) for _ in range(count)]
    if style == "single":
        return [2.0] * count
    out = [float(rng.randint(0, 5)) for _ in range(count)]
    if out:
        out[rng.randrange(count)] = rng.choice((-1.5, 6.25, -0.0, 7.0, math.inf, math.nan))
    return out


def _side(rng: random.Random, style: str) -> tuple[list[float], int]:
    observed = 0 if rng.random() < 0.05 else rng.randint(1, 40)
    missing = 0 if rng.random() < 0.3 else rng.randint(1, 40)
    if observed == 0:
        missing = max(missing, 1)
    return _values(rng, style, observed), missing


def _synthetic(rng: random.Random) -> dict:
    """StatBounds and VarBounds arguments with n, m up to 10^6."""
    n = int(10 ** rng.uniform(0, 6))
    m = int(10 ** rng.uniform(0, 6))
    nm2 = 2 * n * m
    a = rng.choice((nm2 // 2, nm2 // 2 + 1, max(nm2 // 2 - 1, 0), rng.randint(0, nm2)))
    b = rng.choice((a, nm2 // 2, rng.randint(0, nm2)))
    lo2, hi2 = sorted((a, b))
    plain = Fraction(n * m * (n + m + 1), 12)
    s_max = plain * Fraction(rng.randint(1, 1000), 1000)
    s_min = rng.choice((s_max, Fraction(0), s_max * Fraction(rng.randint(0, 1000), 1000)))
    return {
        "w_min": f"{lo2}/2", "w_max": f"{hi2}/2", "n": n, "m": m,
        "n_obs_x": rng.randint(1, n), "n_obs_y": rng.randint(1, m),
        "sigma2_min": str(s_min), "sigma2_max": str(s_max), "d_max": rng.randint(1, n + m),
    }


def instances(seed: int, count: int):
    """The seeded instance stream, as JSON-ready dicts."""
    rng = random.Random(seed)
    for i in range(count):
        style = rng.choice(STYLES)
        x, miss_x = _side(rng, style)
        y, miss_y = _side(rng, style)
        yield {
            "i": i,
            "alternative": ALTERNATIVES[i % 3],
            "support": SUPPORTS[(i // 3) % 4],
            "style": style,
            "x": x, "miss_x": miss_x, "y": y, "miss_y": miss_y,
            "alpha": 10 ** rng.uniform(-6, math.log10(0.999)),
            "near_alpha_ulps": rng.randint(-2, 2) if rng.random() < 0.125 else None,
            "as_array": rng.random() < 0.5,
            "synthetic": _synthetic(rng),
        }


def _text(fn) -> str:
    try:
        return repr(fn())
    except Exception as exc:  # the message is part of the result
        return f"{type(exc).__name__}: {exc}"


def _floats(values) -> list[float]:
    """A completed sample, list or array, as a list of Python floats."""
    return np.asarray(values, dtype=float).tolist()


def _cli(cli, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}"


def _results(rg, inst: dict):
    """(field, text) for every call on one instance."""
    from rankguard import cli

    alt = rg.Alternative(inst["alternative"])
    lower, upper = inst["support"]
    support = rg.Support(lower=lower, upper=upper)
    as_input = np.asarray if inst["as_array"] else list
    x_obs, y_obs = as_input(inst["x"]), as_input(inst["y"])
    alpha = inst["alpha"]

    def samples():
        return rg.Sample(x_obs, inst["miss_x"]), rg.Sample(y_obs, inst["miss_y"])

    if inst["near_alpha_ulps"] is not None:
        with contextlib.suppress(Exception):  # a failing instance keeps its alpha
            p = rg.robust_test_general(*samples(), support, 0.05, alt).p_max
            for _ in range(abs(inst["near_alpha_ulps"])):
                p = math.nextafter(p, math.inf if inst["near_alpha_ulps"] > 0 else 0.0)
            if 0.0 < p < 1.0:
                alpha = p

    yield "report_distinct", _text(lambda: rg.robust_test_distinct(*samples(), alpha, alt))
    yield "report_general", _text(lambda: rg.robust_test_general(*samples(), support, alpha, alt))
    yield "p_value_bounds", _text(lambda: rg.p_value_bounds(
        rg.stat_bounds_general(*samples(), support), rg.variance_bounds(*samples()), alt))
    syn = inst["synthetic"]
    yield "p_value_bounds_synthetic", _text(lambda: rg.p_value_bounds(
        rg.StatBounds(Fraction(syn["w_min"]), Fraction(syn["w_max"]), syn["n"], syn["m"],
                      syn["n_obs_x"], syn["n_obs_y"]),
        rg.VarBounds(Fraction(syn["sigma2_min"]), Fraction(syn["sigma2_max"]), syn["d_max"]),
        alt))
    yield "boundary_counts", _text(lambda: rg.BoundaryCounts.from_observed(
        *(s.observed for s in samples()), support))
    yield "wmw_test", _text(lambda: rg.wmw_test(x_obs, y_obs, alt))
    yield "tie_corrected_variance", _text(lambda: rg.tie_corrected_variance(
        len(inst["x"]), len(inst["y"]), rg.tie_profile(inst["x"] + inst["y"])))
    yield "impute_mean", _text(lambda: [_floats(rg.impute_mean(s)) for s in samples()])

    def hot_deck():
        rng = np.random.default_rng([inst["i"], 0xD1FF])
        return [_floats(rg.impute_hot_deck(s, rng)) for s in samples()]

    yield "impute_hot_deck", _text(hot_deck)
    options = ["--alpha", repr(alpha), "--alternative", CLI_ALTERNATIVES[inst["alternative"]]]
    if inst["i"] % 2 == 0:  # else no --support: the whole line
        ends = ("" if end is None else repr(end) for end in (lower, upper))
        options.append("--support=" + ",".join(ends))
    yield "cli_test", _cli(cli, [
        "test", "--x=" + ",".join(map(repr, inst["x"])), "--y=" + ",".join(map(repr, inst["y"])),
        "--n-total", str(len(inst["x"]) + inst["miss_x"]),
        "--m-total", str(len(inst["y"]) + inst["miss_y"]), *options])
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "groups.csv"
        sides = (("a", inst["x"], inst["miss_x"]), ("b", inst["y"], inst["miss_y"]))
        rows = [f"{group},{token}" for group, values, missing in sides
                for token in [*map(repr, values), *["NA"] * missing]]
        data.write_text("\n".join(["group,value", *rows]) + "\n")
        analyzed = _cli(cli, ["analyze", "--data", str(data), "--control", "a", *options])
    yield "cli_analyze", analyzed


def _simulate() -> list[tuple[str, str]]:
    from rankguard import cli

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for field, text in SIM_SCENARIOS.items():
            scenario = Path(tmp) / f"{field}.scenario"
            scenario.write_text(text)
            for workers in (1, 2):
                csv_path = Path(tmp) / f"{field}_w{workers}.csv"
                code = _cli(cli, ["simulate", "--scenario", str(scenario), "--seed", "7",
                                  "--workers", str(workers), "--out", str(csv_path)]).split("\n")[0]
                body = csv_path.read_text() if csv_path.exists() else ""
                out.append((f"{field}_w{workers}", f"{code}\n{body}"))
    return out


def emit(src: Path, seed: int, count: int) -> None:
    """Print every result of the rankguard under ``src`` as JSON lines."""
    sys.path.insert(0, str(src))
    import rankguard as rg

    if not Path(rg.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"rankguard resolved to {rg.__file__}, not under {src}")
    records = []
    for inst in instances(seed, count):
        records += [(inst["i"], field, text) for field, text in _results(rg, inst)]
    records += [(-1, field, text) for field, text in _simulate()]
    for i, field, text in records:
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(json.dumps({"i": i, "field": field, "digest": digest, "preview": text[:300]}))


def _collect(src: Path, seed: int, count: int) -> dict[tuple[int, str], dict]:
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--emit", str(src),
             "--seed", str(seed), "--instances", str(count)],
            cwd=tmp, capture_output=True, text=True,
        )
    if done.returncode != 0:
        sys.exit(f"emit run on {src} failed ({done.returncode}):\n{done.stderr}")
    rows = (json.loads(line) for line in done.stdout.splitlines() if line.startswith("{"))
    return {(row["i"], row["field"]): row for row in rows}


def _declarations(tree: Path) -> list:
    path = tree / DECLARATIONS
    return json.loads(path.read_text()) if path.exists() else []


def _refuse(entry) -> int:
    print(f"bad entry in {DECLARATIONS}: {entry!r}", file=sys.stderr)
    return 2


def compare(parent: Path, seed: int, count: int) -> int:
    parent_entries = _declarations(parent)
    entries = [e for e in _declarations(HERE.parent) if e not in parent_entries]
    for entry in entries:  # the kind before the runs, the field once they show the fields
        if not isinstance(entry, dict) or entry.get("kind") != "may differ":
            return _refuse(entry)
    old = _collect(parent / "src", seed, count)
    new = _collect(THIS_SRC, seed, count)
    for entry in entries:
        if entry.get("field") not in {field for _, field in old.keys() | new.keys()}:
            return _refuse(entry)
    declared = {entry["field"] for entry in entries}
    fields: dict[str, list[int]] = {}  # field -> [results, undeclared, declared]
    first = None
    for key in sorted(old.keys() | new.keys()):
        counts = fields.setdefault(key[1], [0, 0, 0])
        counts[0] += 1
        a, b = old.get(key), new.get(key)
        if a is None or b is None or a["digest"] != b["digest"]:
            if key[1] in declared:
                counts[2] += 1
            else:
                counts[1] += 1
                first = first or key
    print(f"{'field':<26}{'results':>9}{'undeclared':>12}{'declared':>10}")
    for field, (total, undeclared, expected) in sorted(fields.items()):
        print(f"{field:<26}{total:>9}{undeclared:>12}{expected:>10}")
    total, undeclared, expected = (sum(c[k] for c in fields.values()) for k in range(3))
    print(f"{'all':<26}{total:>9}{undeclared:>12}{expected:>10}")
    exits: dict[str, Counter] = {}
    for (_, field), row in new.items():
        if row["preview"].startswith("exit "):
            code = row["preview"].split("\n", 1)[0].removeprefix("exit ")
            exits.setdefault(field, Counter())[code] += 1
    print("\nexit codes in this tree")
    for field, codes in sorted(exits.items()):
        print(f"{field:<26}" + " ".join(f"{code}:{count}" for code, count in sorted(codes.items())))
    if first is None:
        return 0
    i, field = first
    if i >= 0:
        inst = next(inst for inst in instances(seed, count) if inst["i"] == i)
        print(f"\nfirst undeclared difference, instance ({field}):\n{json.dumps(inst)}")
    else:
        print(f"\nfirst undeclared difference: {field}")
    for label, side in (("parent", old), ("this tree", new)):
        row = side.get(first)
        print(f"{label}: {row['preview'] if row else '(no result)'}")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--parent", type=Path, help="tree to compare this tree against")
    target.add_argument("--emit", type=Path, help="print the results of the rankguard in this src/")
    parser.add_argument("--instances", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.emit is not None:
        emit(args.emit, args.seed, args.instances)
        return 0
    return compare(args.parent, args.seed, args.instances)


if __name__ == "__main__":
    sys.exit(main())
