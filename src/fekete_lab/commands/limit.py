"""limit: estimate ratio-net limits on a grid, a ray, a diagonal or nested tails."""

from __future__ import annotations

import argparse
import math

from ..cli import EXIT_OK, _get_oracle, _meta, _numbers, _timestamp
from ..domain import ConfigError, GridSchedule, Point
from ..ioutil import write_csv_atomic, write_json_atomic, write_text_atomic


def _bracket_outputs(ns: argparse.Namespace, stem: str, bracket) -> None:
    from ..svgplot import PlotSeries, line_plot_svg
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


def run(ns: argparse.Namespace) -> int:
    from ..limits import diagonal_limit, iterated_limit, ray_limit, simultaneous_limit
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
