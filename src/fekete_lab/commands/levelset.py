"""levelset: level-set measure lemma margins at anchor points."""

from __future__ import annotations

import argparse

from ..cli import EXIT_OK, EXIT_VIOLATIONS, _get_oracle, _meta, _numbers
from ..domain import ConfigError, Point
from ..ioutil import write_csv_atomic, write_json_atomic


def run(ns: argparse.Namespace) -> int:
    from ..levelset import check_levelset_lemma
    if ns.method == "grid" and ns.samples is not None:
        raise ConfigError("--samples does not apply to the grid method, only to mc")
    if ns.method == "mc" and ns.cells is not None:
        raise ConfigError("--cells does not apply to the mc method, only to grid")
    oracle = _get_oracle(ns)
    if ns.anchors is None:
        raise ConfigError("give anchors with --anchors \"t1,t2[;u1,u2...]\"")
    anchors = [Point(_numbers(chunk, "point")) for chunk in ns.anchors.split(";")]
    rows = check_levelset_lemma(oracle, anchors, ns.method,
                                cells=400 if ns.cells is None else ns.cells,
                                samples=20_000 if ns.samples is None else ns.samples,
                                seed=ns.seed)
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
