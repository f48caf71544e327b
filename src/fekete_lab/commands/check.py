"""check: run subadditivity checks on an oracle."""

from __future__ import annotations

import argparse

from ..cli import _CHECK_MODES, EXIT_OK, EXIT_VIOLATIONS, _get_oracle, _meta
from ..domain import ConfigError
from ..ioutil import write_csv_atomic, write_json_atomic


def run(ns: argparse.Namespace) -> int:
    from ..checks import (check_componentwise, check_four_term, check_joint,
                          check_monoid_sign, check_set_union, check_shifted_subadditivity)
    from ..registry import load_set_family
    from ..sampling import SampleBudget
    if ns.mode not in _CHECK_MODES:
        raise ConfigError(f"unknown mode {ns.mode!r}; choose from {', '.join(_CHECK_MODES)}")
    if ns.shift is not None and ns.mode != "shift":
        raise ConfigError(f"--shift does not apply to {ns.mode} mode, only to shift")

    reports = []
    if ns.mode == "set_union":
        # the set family names its own oracle
        for flag, value in (("--fn", ns.fn), ("--table", ns.table)):
            if value is not None:
                raise ConfigError(f"{flag} does not apply to set_union mode, "
                                  "whose set function comes from --sets")
        if ns.count is not None:
            raise ConfigError("--count does not apply to set_union mode, "
                              "which checks every pair of the family")
        if ns.sets is None:
            raise ConfigError("set_union mode needs --sets FILE")
        g, family = load_set_family(ns.sets)
        reports.append(check_set_union(g, family))
    else:
        if ns.sets is not None:
            raise ConfigError(f"--sets does not apply to {ns.mode} mode, only to set_union")
        oracle = _get_oracle(ns)
        budget = SampleBudget(count=10_000 if ns.count is None else ns.count, seed=ns.seed)
        if ns.mode in ("joint", "all"):
            reports.append(check_joint(oracle, budget))
        if ns.mode in ("componentwise", "all"):
            reports.append(check_componentwise(oracle, budget))
        if ns.mode in ("four_term", "all"):
            reports.append(check_four_term(oracle, budget))
        if ns.mode == "monoid" or (ns.mode == "all" and oracle.domain.is_group):
            reports.append(check_monoid_sign(oracle, budget))
        if ns.mode == "shift":
            shift = 1 if ns.shift is None else ns.shift
            reports.append(check_shifted_subadditivity(oracle, shift, budget))

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
