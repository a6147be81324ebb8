"""Acceptance suite: one test per numbered criterion, made from the registry.

Criterion k runs the k-th entry of ``qkepler.checks.REGISTRY`` at the
gate's settings and seed, as ``qkepler verify all`` does, and adds the
oracles that live only here: the spot values of two exact checks and a
second seed for the randomized check, ``metric``.
Each test logs a single pass/fail line (printed in the terminal summary)
before its asserts, so a failing criterion still reports its line.
"""

import time

from qkepler import checks
from qkepler.spectral import (
    ModelParams,
    dimension_equality_check,
    ktype_dim_check,
)


def run_criterion(criterion, number: int, name: str) -> None:
    check = checks.REGISTRY[name]
    start = time.perf_counter()
    rows = check()
    elapsed = time.perf_counter() - start
    oracle = True
    if name == "dim-equality":
        spot = dimension_equality_check(2, 2)
        oracle = spot.lhs == 36 and spot.rhs == 36
    elif name == "ktype-dims":
        spot = ktype_dim_check(ModelParams(2, 0), 1)
        oracle = spot.u2n_dim == 6 and spot.sp_sum == 6
    elif name == "metric":
        rows += check(seed=7)
    failed = [r.name for r in rows if not r.passed]
    criterion(number, f"{name}: {len(rows) - len(failed)}/{len(rows)} "
                      f"rows pass, {elapsed:.1f}s", not failed and oracle)
    assert not failed
    assert oracle


# Registry name -> title, in registry order.  The tests are module-level
# functions test_criterion_NN_<title> rather than one parametrized test,
# so each criterion keeps the test id it had before the registry existed.
TITLES = {
    "eigensolve": "spectrum_from_eigensolver",
    "collapse": "eigenvalue_collapse",
    "dim-equality": "dimension_equality",
    "genfunc": "generating_function",
    "dims": "closed_form_dimensions",
    "ktype-dims": "ktype_dimensions",
    "casimir": "casimir_identity",
    "residuals": "radial_residuals",
    "twist": "twist_correspondence",
    "micz": "micz_equivalence",
    "metric": "metric_identities",
    "ostar": "ostar_identities",
    "schur": "schur_norms",
    "orthogonality": "orthonormality",
}
assert list(TITLES) == list(checks.REGISTRY)
for _number, (_name, _title) in enumerate(TITLES.items(), 1):
    globals()[f"test_criterion_{_number:02d}_{_title}"] = (
        lambda criterion, number=_number, name=_name:
        run_criterion(criterion, number, name))
