"""The one rule every measured check is decided by: its value holds when it
is at most its bound, and NaN fails."""

import math

import numpy as np

from fluxlattice.operators import build_wavefunction, verify_relations
from fluxlattice.phases import Flux
from fluxlattice.reporting import RelationCheck, RelationReport

BOUND = 1e-9


def measured(value, bound=BOUND):
    report = RelationReport()
    report.measure("deviation", value, bound, "a measured figure")
    (check,) = report.checks
    return check


def test_a_nan_value_fails():
    check = measured(math.nan)
    assert check.holds is False
    assert math.isnan(check.value) and check.bound == BOUND


def test_a_value_at_its_bound_holds_and_the_next_float_above_fails():
    assert measured(BOUND).holds is True
    assert measured(math.nextafter(BOUND, math.inf)).holds is False


def test_a_numpy_value_decides_a_plain_bool():
    # the report's JSON holds `holds`, which json cannot write as numpy's bool
    assert measured(np.float64(BOUND)).holds is True
    assert measured(np.float64(2 * BOUND)).holds is False


def test_an_exact_check_has_no_value_or_bound():
    report = RelationReport()
    report.add("exact", False, (1, 2), "a witnessed failure")
    assert report.checks == [RelationCheck("exact", False, (1, 2), "a witnessed failure")]
    relations = verify_relations(build_wavefunction(Flux.parse("1/5"), 3))
    assert relations.checks
    for check in report.checks + relations.checks:
        assert check.value is None and check.bound is None


def test_a_measured_check_is_added_through_add(monkeypatch):
    # a wrapper of `add`, such as a check counter, sees every measured check
    seen = []
    add = RelationReport.add

    def counted(self, name, holds, *args, **kwargs):
        seen.append((name, holds))
        return add(self, name, holds, *args, **kwargs)
    monkeypatch.setattr(RelationReport, "add", counted)
    measured(math.nan)
    assert seen == [("deviation", False)]


def test_a_measured_check_reads_as_an_exact_one():
    report = RelationReport()
    report.measure("deviation", 2 * BOUND, BOUND, "a measured figure")
    report.add("exact", True)
    assert report.all_pass is False
    assert report.to_text() == ("RELATION deviation: FAIL a measured figure\n"
                                "RELATION exact: PASS")
    assert report.to_json_dict() == [
        {"relation": "deviation", "holds": False, "witness_site": None},
        {"relation": "exact", "holds": True, "witness_site": None},
    ]
