"""Batch experiment harness over the library.

Subcommands: check, limit, entropy, levelset, counterexamples.  Every
run is reproducible from its flags (or --config JSON mirroring them)
plus the package version: all randomness flows from the single seed and
outputs are written atomically with deterministic formatting.  SVG
files embed a generation timestamp unless --no-timestamp is given;
JSON and CSV never contain one.  Each --config key names a flag of the
subcommand, and its value is read as the text typed after that flag, so
{"levels": 4.7} is refused as --levels 4.7 is; a flag given on the
command line wins over the config.

Exit codes: 0 success, 2 usage/config error, 3 violations found,
4 internal error.  An argument error is any ConfigError, DomainError or
DimensionMismatchError, and exits 2 wherever the library raises it;
oracle faults (EvaluationError, IndeterminateFormError) and broken
invariants exit 4.  Divergent or inconclusive limit statuses are
findings, not failures, and exit 0.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import math
import sys
from pathlib import Path

from . import __version__
from .domain import (ConfigError, DimensionMismatchError, DomainError, FeketeLabError,
                     GridSchedule, Point, ScheduleError, _TAIL_STEPS, _json_file)
from .ioutil import write_csv_atomic, write_json_atomic, write_text_atomic

# Each subcommand imports the modules it needs inside its handler, so a run
# loads only those: entropy never loads numpy, and only limit and entropy,
# which plot, load svgplot.

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATIONS = 3
EXIT_INTERNAL = 4

# freeze what is alive at exit, so shutdown neither collects nor frees the run's heap
atexit.register(gc.freeze)


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------

def _config_defaults(command: argparse.ArgumentParser, ns: argparse.Namespace) -> dict:
    """The --config file's values, each converted as if typed after its flag."""
    # a config key must name one of the subcommand's own flags
    actions = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    with _json_file(ns.config, "config") as config:
        unknown = sorted(set(config) - set(actions))
        if unknown:
            raise ConfigError(f"unknown key(s) for {ns.command}: {', '.join(unknown)}")
        if not isinstance(config.get("no_timestamp", False), bool):
            raise ConfigError("no_timestamp must be true or false, "
                              f"got {config['no_timestamp']!r}")
        return {key: value if key == "no_timestamp" else _typed(actions[key], value)
                for key, value in config.items()}


def _typed(action: argparse.Action, value: object) -> object:
    """value converted as if typed after action's flag.

    A flag without a numeric type takes a string or a number only: str()
    would read null as the text None and true as True.
    """
    kind = action.type or str
    if kind not in (int, float) and type(value) not in (str, int, float):
        raise ConfigError(f"{action.dest} must be a string or a number, got {value!r}")
    try:
        return kind(str(value))
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{action.dest} must be {noun}, got {value!r}") from exc


def _check_out(out: Path) -> None:
    """Refuse an --out that is, or lies below, something other than a directory."""
    path = next(p for p in (out, *out.parents) if p.exists())
    if not path.is_dir():
        raise ConfigError(f"cannot write to --out {out}: {path} is not a directory")


def _numbers(text: str, what: str, kind: type = float) -> list:
    """The comma-separated numbers in text, each read by kind; what names them in a refusal."""
    try:
        return [kind(c) for c in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {text!r}: {exc}") from exc


def _get_oracle(ns: argparse.Namespace):
    from .registry import builtin, load_tabulated
    if ns.table is not None and ns.fn is not None:
        raise ConfigError("give one of --fn and --table, not both")
    if ns.table is not None:
        return load_tabulated(ns.table)
    if ns.fn is None:
        raise ConfigError("give an oracle with --fn NAME or --table FILE")
    return builtin(ns.fn)


def _meta(ns: argparse.Namespace) -> dict:
    return {"command": ns.command, "seed": ns.seed, "version": __version__}


def _timestamp(ns: argparse.Namespace) -> str | None:
    if ns.no_timestamp:
        return None
    from datetime import datetime, timezone  # only a timestamped SVG loads it
    return datetime.now(timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

_CHECK_MODES = ("joint", "componentwise", "four_term", "monoid", "shift", "set_union", "all")


def _cmd_check(ns: argparse.Namespace) -> int:
    from .checks import (check_componentwise, check_four_term, check_joint,
                         check_monoid_sign, check_set_union, check_shifted_subadditivity)
    from .registry import load_set_family
    from .sampling import SampleBudget
    if ns.mode not in _CHECK_MODES:
        raise ConfigError(f"unknown mode {ns.mode!r}; choose from {', '.join(_CHECK_MODES)}")

    reports = []
    if ns.mode == "set_union":
        # the set family names its own oracle
        for flag, value in (("--fn", ns.fn), ("--table", ns.table)):
            if value is not None:
                raise ConfigError(f"{flag} does not apply to set_union mode, "
                                  "whose set function comes from --sets")
        if ns.sets is None:
            raise ConfigError("set_union mode needs --sets FILE")
        g, family = load_set_family(ns.sets)
        reports.append(check_set_union(g, family))
    else:
        if ns.sets is not None:
            raise ConfigError(f"--sets does not apply to {ns.mode} mode, only to set_union")
        oracle = _get_oracle(ns)
        budget = SampleBudget(count=ns.count, seed=ns.seed)
        if ns.mode in ("joint", "all"):
            reports.append(check_joint(oracle, budget))
        if ns.mode in ("componentwise", "all"):
            reports.append(check_componentwise(oracle, budget))
        if ns.mode in ("four_term", "all"):
            reports.append(check_four_term(oracle, budget))
        if ns.mode == "monoid" or (ns.mode == "all" and oracle.domain.is_group):
            reports.append(check_monoid_sign(oracle, budget))
        if ns.mode == "shift":
            reports.append(check_shifted_subadditivity(oracle, ns.shift, budget))

    total = 0
    for report in reports:
        stem = f"check_{report.kind}"
        write_json_atomic(ns.out / f"{stem}.json", {"meta": _meta(ns), **report.to_json_dict()})
        write_csv_atomic(ns.out / f"{stem}.csv", report.to_csv_rows())
        total += report.violation_count
        print(f"{report.kind}: {report.hit_count} hit(s), {report.violation_count} distinct, "
              f"{len(report.violations)} listed, over {report.samples_checked} samples "
              f"-> {ns.out / (stem + '.json')}")
    return EXIT_VIOLATIONS if total else EXIT_OK


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------

def _bracket_outputs(ns: argparse.Namespace, stem: str, bracket) -> None:
    from .svgplot import PlotSeries, line_plot_svg
    write_json_atomic(ns.out / f"{stem}.json", {"meta": _meta(ns), **bracket.to_json_dict()})
    write_csv_atomic(ns.out / f"{stem}.csv", bracket.samples_csv_rows())
    series = [
        PlotSeries(name="shell extreme",
                   points=tuple((float(k), v) for k, v in bracket.shell_extremes())),
        PlotSeries(name="running bound", dashed=True,
                   points=tuple((float(k), v) for k, v in bracket.running_bound_by_shell())),
    ]
    svg = line_plot_svg(series, title=stem, xlabel="shell",
                        ylabel="ratio", timestamp=_timestamp(ns))
    write_text_atomic(ns.out / f"{stem}.svg", svg)


def _cmd_limit(ns: argparse.Namespace) -> int:
    from .limits import diagonal_limit, iterated_limit, ray_limit, simultaneous_limit
    oracle = _get_oracle(ns)
    modes = [flag for flag, value in (("--iterated", ns.iterated), ("--direction", ns.direction),
                                      ("--diagonal", ns.diagonal)) if value is not None]
    if len(modes) > 1:
        raise ConfigError("give at most one of --iterated, --direction and --diagonal, "
                          f"got {', '.join(modes)}")
    d = oracle.domain.dim
    if ns.direction is not None or ns.diagonal is not None:
        # ray and diagonal limits run a one-dimensional parameter t from 1
        if ns.base is not None:
            raise ConfigError(f"--base does not apply to {modes[0]}: the path starts at t = 1")
        base = Point((1.0,))
    else:
        base = Point((1.0,) * d) if ns.base is None else Point(_numbers(ns.base, "point"))
    # the estimators check delta and the schedule before they evaluate
    schedule = GridSchedule(base=base, growth=ns.growth, levels=ns.levels)

    if ns.iterated is not None:
        order = [axis - 1 for axis in _numbers(ns.iterated, "axis order", int)]
        if sorted(order) != list(range(d)):
            raise ConfigError(f"axis order {ns.iterated!r} is not a permutation of 1..{d}")
        result = iterated_limit(oracle, order, schedule, ns.delta)
        write_json_atomic(ns.out / "iterated.json", {"meta": _meta(ns), **result.to_json_dict()})
        value = "+inf" if result.value == math.inf else (
            "-inf" if result.value == -math.inf else repr(result.value))
        print(f"iterated order {ns.iterated}: value {value}, status {result.status} "
              f"-> {ns.out / 'iterated.json'}")
        return EXIT_OK

    if ns.direction is not None:
        bracket = ray_limit(oracle, Point(_numbers(ns.direction, "point")), schedule, ns.delta)
        _bracket_outputs(ns, "ray", bracket)
        print(f"ray {ns.direction}: status {bracket.status}, best_upper {bracket.best_upper!r}")
        return EXIT_OK

    if ns.diagonal is not None:
        powers = _numbers(ns.diagonal, "diagonal powers")
        bracket = diagonal_limit(oracle, powers, schedule, ns.delta)
        _bracket_outputs(ns, "diagonal", bracket)
        print(f"diagonal t^{powers}: status {bracket.status}, "
              f"best_upper {bracket.best_upper!r}")
        return EXIT_OK

    bracket = simultaneous_limit(oracle, schedule, ns.delta)
    _bracket_outputs(ns, "bracket", bracket)
    print(f"simultaneous: status {bracket.status}, best_upper {bracket.best_upper!r}, "
          f"evaluations {bracket.evaluations}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def _cmd_entropy(ns: argparse.Namespace) -> int:
    from .subshift import builtin_sft, builtin_sft_names, entropy_bounds, load_sft_spec
    from .svgplot import PlotSeries, line_plot_svg
    if ns.sft is None:
        raise ConfigError("give a subshift with --sft NAME or --sft FILE")
    if ns.sft in builtin_sft_names():
        sft = builtin_sft(ns.sft)
    elif Path(ns.sft).exists():
        sft = load_sft_spec(ns.sft)
    else:
        raise ConfigError(f"unknown subshift {ns.sft!r}: not a fixture "
                          f"({', '.join(builtin_sft_names())}) and not a file")
    bracket = entropy_bounds(sft, ns.max_side)
    write_json_atomic(ns.out / "entropy.json",
                      {"meta": _meta(ns), "sft": ns.sft, **bracket.to_json_dict()})
    write_csv_atomic(ns.out / "entropy.csv", bracket.to_csv_rows())
    pts_ratio = tuple((float(e.sides[0]), e.ratio) for e in bracket.entries)
    pts_min = tuple((float(e.sides[0]), e.running_min) for e in bracket.entries)
    series = [PlotSeries(name="ratio", points=pts_ratio),
              PlotSeries(name="running min", points=pts_min, dashed=True)]
    svg = line_plot_svg(series, title=f"entropy bounds: {ns.sft}", xlabel="side",
                        ylabel="log_a(count)/volume", timestamp=_timestamp(ns))
    write_text_atomic(ns.out / "entropy.svg", svg)
    note = " (truncated at cap)" if bracket.truncated else ""
    print(f"entropy '{ns.sft}': best_upper {bracket.best_upper!r}{note} "
          f"-> {ns.out / 'entropy.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# levelset
# ---------------------------------------------------------------------------

def _cmd_levelset(ns: argparse.Namespace) -> int:
    from .levelset import check_levelset_lemma
    oracle = _get_oracle(ns)
    if ns.anchors is None:
        raise ConfigError("give anchors with --anchors \"t1,t2[;u1,u2...]\"")
    anchors = [Point(_numbers(chunk, "point")) for chunk in ns.anchors.split(";")]
    rows = check_levelset_lemma(oracle, anchors, ns.method, cells=ns.cells,
                                samples=ns.samples, seed=ns.seed)
    write_json_atomic(ns.out / "levelset.json", {
        "meta": _meta(ns), "oracle": oracle.name, "rows": [r.to_json_dict() for r in rows]})
    write_csv_atomic(ns.out / "levelset.csv", [
        ["anchor", "k", "mu_estimate", "error", "bound", "margin", "holds"],
        *([" ".join(repr(c) for c in r.anchor), repr(r.k), repr(r.estimate.value),
           repr(r.estimate.error_bound), repr(r.bound), repr(r.margin), str(r.holds)]
          for r in rows)])
    for r in rows:
        print(f"anchor {r.anchor}: margin {r.margin!r} "
              f"({'holds' if r.holds else 'FAILS'})")
    return EXIT_OK if all(r.holds for r in rows) else EXIT_VIOLATIONS


# ---------------------------------------------------------------------------
# counterexamples
# ---------------------------------------------------------------------------

def _replay_sqrt_product(seed: int) -> dict:
    from .checks import check_componentwise, check_joint
    from .registry import builtin
    from .sampling import SampleBudget
    oracle = builtin("sqrt_prod")
    budget = SampleBudget(count=2000, seed=seed)
    joint = check_joint(oracle, budget)
    witness = joint.find(((1.0, 2.0), (2.0, 1.0)))
    expected_margin = 3.0 - 2.0 * math.sqrt(2.0)
    margin_ok = witness is not None and abs(witness.margin - expected_margin) <= 1e-12
    componentwise = check_componentwise(oracle, budget)
    return {
        "name": "sqrt_product_joint_vs_componentwise",
        "detail": "componentwise subadditive yet jointly violated at (1,2)+(2,1)",
        "reproduced": bool(margin_ok and componentwise.clean),
        "joint_margin": None if witness is None else witness.margin,
        "componentwise_clean": componentwise.clean,
    }


def _replay_min_denominator() -> dict:
    from .levelset import rubin_unboundedness_demo
    demo = rubin_unboundedness_demo(100)
    return {
        "name": "min_denominator_unbounded_box",
        "detail": "bounded on every axis line, unbounded on the box",
        "reproduced": demo.ok,
        "max_diagonal_value": max(v for _, v in demo.diagonal),
    }


def _replay_mixed_curvature() -> dict:
    from .limits import CONVERGED, DIVERGING_PLUS, INCONCLUSIVE, iterated_limit, simultaneous_limit
    from .registry import builtin
    oracle = builtin("x1sq_sqrt_x2")
    schedule = GridSchedule(base=Point((1.0, 1.0)))
    lo = iterated_limit(oracle, (0, 1), schedule, 0.01)
    hi = iterated_limit(oracle, (1, 0), schedule, 0.01)
    sim = simultaneous_limit(oracle, schedule, 0.01)
    ok = (lo.status == CONVERGED and abs(lo.value) <= 0.01
          and hi.status == DIVERGING_PLUS and hi.value == math.inf
          and sim.status == INCONCLUSIVE)
    return {
        "name": "mixed_curvature_order_dependence",
        "detail": "iterated limits 0 vs +inf depending on order; no simultaneous limit",
        "reproduced": bool(ok),
        "order_1_2": lo.value,
        "order_2_1": hi.value,
        "simultaneous_status": sim.status,
    }


def _replay_parity_set_lift(seed: int) -> dict:
    from .checks import check_set_union, check_shifted_subadditivity
    from .registry import builtin, set_function_from_integer
    from .sampling import SampleBudget
    oracle = builtin("nmod2")
    g = set_function_from_integer(oracle)
    union = check_set_union(g, [[1, 2], [2, 3]])
    union_hit = union.find(((1, 2), (2, 3)))
    budget = SampleBudget(count=2000, seed=seed)
    shifted = check_shifted_subadditivity(oracle, 1, budget)
    shift_hit = shifted.find(((1.0,), (1.0,)))
    unshifted = check_shifted_subadditivity(oracle, 0, budget)
    ok = (union_hit is not None and union_hit.lhs == 1.0 and union_hit.rhs == 0.0
          and shift_hit is not None and shift_hit.lhs == 1.0 and shift_hit.rhs == 0.0
          and unshifted.clean)
    return {
        "name": "parity_set_lift_and_shift",
        "detail": "cardinality lift breaks union subadditivity; shift by 1 breaks it on Z",
        "reproduced": bool(ok),
        "union_margin": None if union_hit is None else union_hit.margin,
        "shift_margin": None if shift_hit is None else shift_hit.margin,
        "unshifted_clean": unshifted.clean,
    }


def _cmd_counterexamples(ns: argparse.Namespace) -> int:
    results = [
        _replay_sqrt_product(ns.seed),
        _replay_min_denominator(),
        _replay_mixed_curvature(),
        _replay_parity_set_lift(ns.seed),
    ]
    write_json_atomic(ns.out / "counterexamples.json", {"meta": _meta(ns), "results": results})
    for r in results:
        print(f"{'PASS' if r['reproduced'] else 'FAIL'} {r['name']}: {r['detail']}")
    print(f"{sum(r['reproduced'] for r in results)}/{len(results)} reproduced "
          f"-> {ns.out / 'counterexamples.json'}")
    return EXIT_OK if all(r["reproduced"] for r in results) else EXIT_VIOLATIONS


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="fekete-lab",
        description="Experiments on componentwise subadditive functions: "
                    "subadditivity checks, limit brackets, level-set bounds, "
                    "and subshift entropy bounds.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", type=Path, default="fekete_results",
                       help="output directory (default %(default)s)")
        p.add_argument("--seed", type=int, default=2024,
                       help="seed for all sampling (default %(default)s)")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the generation timestamp from SVG output")
        p.add_argument("--config", help="JSON config file mirroring the flags; "
                                        "a flag given on the command line wins")

    def oracle(p: argparse.ArgumentParser) -> None:
        p.add_argument("--fn", help="builtin oracle name (an unknown name lists them all)")
        p.add_argument("--table", help="tabulated-function JSON file")

    p = sub.add_parser("check", help="run subadditivity checks on an oracle")
    oracle(p)
    p.add_argument("--mode", default="all",
                   help=f"one of {', '.join(_CHECK_MODES)} (default %(default)s)")
    p.add_argument("--count", type=int, default=10_000,
                   help="random sample count (default %(default)s)")
    p.add_argument("--shift", type=int, default=1,
                   help="shift amount for shift mode (default %(default)s)")
    p.add_argument("--sets", help="set-family JSON file for set_union mode")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("limit", help="estimate ratio-net limits")
    oracle(p)
    p.add_argument("--delta", type=float, default=0.01,
                   help="convergence tolerance (default %(default)s)")
    p.add_argument("--base", help="schedule base point, e.g. 1,1")
    p.add_argument("--growth", type=float, default=2.0,
                   help="schedule growth factor (default %(default)s)")
    p.add_argument("--levels", type=int, default=40,
                   help="schedule level count (default %(default)s); --iterated only "
                        f"needs it at least 1, as its tails walk up to {_TAIL_STEPS} rungs "
                        "per axis")
    p.add_argument("--iterated", help="1-based axis order for nested limits, e.g. 2,1")
    p.add_argument("--direction", help="ray direction, e.g. 1,1")
    p.add_argument("--diagonal", help="per-axis powers of t for a diagonal path, e.g. 1,2")
    common(p)
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("entropy", help="pattern-count entropy bounds for a subshift")
    p.add_argument("--sft", help="fixture name or JSON spec file "
                                 "(an unknown name lists the fixtures)")
    p.add_argument("--max-side", dest="max_side", type=int, default=12,
                   help="largest cube side (default %(default)s)")
    common(p)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("levelset", help="level-set measure lemma margins")
    oracle(p)
    p.add_argument("--anchors", help="semicolon-separated anchor points, e.g. 1,1;2,3")
    p.add_argument("--method", default="grid", help="grid or mc (default %(default)s)")
    p.add_argument("--cells", type=int, default=400,
                   help="quadrature cells per axis (default %(default)s)")
    p.add_argument("--samples", type=int, default=20_000,
                   help="Monte Carlo samples (default %(default)s)")
    common(p)
    p.set_defaults(func=_cmd_levelset)

    p = sub.add_parser("counterexamples",
                       help="replay the gallery of counterexamples end to end")
    common(p)
    p.set_defaults(func=_cmd_counterexamples)

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if ns.config is not None:
            # config values become the subcommand's defaults: a flag on the
            # command line still wins when the same argv is parsed again
            commands[ns.command].set_defaults(**_config_defaults(commands[ns.command], ns))
            ns = parser.parse_args(argv)
        _check_out(ns.out)
        return ns.func(ns)
    except ScheduleError as exc:
        print(f"error: unusable schedule: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, DomainError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FeketeLabError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # no exit codes beyond the documented four
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
