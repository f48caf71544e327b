"""entropy: pattern-count entropy bounds for a subshift; loads no numpy."""

from __future__ import annotations

import argparse
from pathlib import Path

from ..cli import EXIT_OK, _meta, _timestamp
from ..domain import ConfigError
from ..ioutil import write_csv_atomic, write_json_atomic, write_text_atomic


def run(ns: argparse.Namespace) -> int:
    from ..subshift import builtin_sft, builtin_sft_names, entropy_bounds, load_sft_spec
    from ..svgplot import PlotSeries, line_plot_svg
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
