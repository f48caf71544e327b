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
import importlib
import sys
from pathlib import Path

from . import __version__
from .domain import (ConfigError, DimensionMismatchError, DomainError, FeketeLabError,
                     ScheduleError, _TAIL_STEPS, _json_file)

# Each subcommand's handler is run(ns) in its own module, commands/<name>.py,
# which main imports only for that subcommand, so a run compiles no other
# handler.  A handler imports the engines it needs inside run, so a run
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


# the check modes, which the check parser's help lists
_CHECK_MODES = ("joint", "componentwise", "four_term", "monoid", "shift", "set_union", "all")


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
    # --count, --shift, --cells and --samples default to None, so that a
    # handler can refuse one its mode ignores; the help names the real default
    p.add_argument("--count", type=int, help="random sample count (default 10000)")
    p.add_argument("--shift", type=int, help="shift amount for shift mode (default 1)")
    p.add_argument("--sets", help="set-family JSON file for set_union mode")
    common(p)

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

    p = sub.add_parser("entropy", help="pattern-count entropy bounds for a subshift")
    p.add_argument("--sft", help="fixture name or JSON spec file "
                                 "(an unknown name lists the fixtures)")
    p.add_argument("--max-side", dest="max_side", type=int, default=12,
                   help="largest cube side (default %(default)s)")
    common(p)

    p = sub.add_parser("levelset", help="level-set measure lemma margins")
    oracle(p)
    p.add_argument("--anchors", help="semicolon-separated anchor points, e.g. 1,1;2,3")
    p.add_argument("--method", default="grid", help="grid or mc (default %(default)s)")
    p.add_argument("--cells", type=int, help="quadrature cells per axis (default 400)")
    p.add_argument("--samples", type=int, help="Monte Carlo samples (default 20000)")
    common(p)

    p = sub.add_parser("counterexamples",
                       help="replay the gallery of counterexamples end to end")
    common(p)

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
        return importlib.import_module(f".commands.{ns.command}", __package__).run(ns)
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
