"""Acceptance gate: every criterion at its pinned tolerance.

Runs the same criterion functions as ``rrlab check`` and prints one
pass/fail line per criterion (run pytest with -s to see them inline).
"""

import pytest

from rrlab.acceptance import (ALL_CRITERIA, DeskArtifacts,
                              criterion_1_convergence,
                              criterion_7_contraction,
                              criterion_8_coercivity,
                              criterion_9_mms_orders)


@pytest.fixture(scope="module")
def artifacts():
    return DeskArtifacts(seed=0)


@pytest.mark.parametrize("criterion", ALL_CRITERIA,
                         ids=[c.__name__ for c in ALL_CRITERIA])
def test_criterion(criterion, artifacts):
    result = criterion(artifacts)
    print(result.line())
    assert result.passed, result.line()


def test_printed_decisions_are_pinned(artifacts):
    # the first iteration below 1e-8 per s, and the predicted rho per s:
    # a change to the probes, the resolvents or the tracking that moves
    # them changes what rrlab check prints.  So do the min coercivity
    # ratio on the 1-D desk problem and the observed mms orders: a change
    # to either problem or to their solves moves them
    assert criterion_1_convergence(artifacts).detail == \
        "s=0.1: n=118; s=1: n=12; s=10: n=92"
    detail = criterion_7_contraction(artifacts).detail
    for rho in ("rho=0.9101", "rho=0.3773", "rho=0.8040"):
        assert rho in detail
    assert "min ratio over 50 smooth fields 7.091e-01" in \
        criterion_8_coercivity(artifacts).detail
    assert criterion_9_mms_orders(artifacts).detail == \
        "theta=1: space 1.94 (want 2), time 1.04 (want 1); " \
        "theta=0.5: space 1.93 (want 2), time 2.12 (want 2)"
