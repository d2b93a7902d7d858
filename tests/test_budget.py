"""The budget scope: every kernel charges the limit of the scope it runs in,
and leaving a scope, by an exception too, restores the limit around it."""

import json
import threading

import pytest

from conftest import rand_set
from fqsalem import errors
from fqsalem.constructions import conjecture_witness, two_set_sharpness
from fqsalem.cli import main
from fqsalem.energy import energy_bruteforce, pair_counts
from fqsalem.errors import DEFAULT_BUDGET, BudgetExceeded, budget_scope, check_budget
from fqsalem.field import field_create
from fqsalem.geometry import HyperplaneMultiset, PointSet, norm, paraboloid, sphere
from fqsalem.incidence import count_incidences, incidence_via_dilation, sphere_incidence_setup
from fqsalem.spectral import fourier_direct, spectrum


@pytest.fixture
def low_default(monkeypatch):
    """A default budget of 48, one unit below F_7's 49 table entries: a kernel
    that fell back to the default instead of its scope's limit would be refused."""
    monkeypatch.setattr(errors, "DEFAULT_BUDGET", 48)


def _built(make):
    """make() in a scope of its own: building a set in F_7^2 scans the 49 points
    of the space, which the default would refuse before the kernel runs."""
    with budget_scope(10 ** 6):
        return make()


def _pair_counts(F):
    E = _built(lambda: rand_set(F, 2, 10, seed=1))
    assert pair_counts(E).lam4 == energy_bruteforce(E, 2)


def _paraboloid(F):
    assert all(x[2] == norm(F, x[:2]) for x in paraboloid(F, 3).points)


def _sphere_incidence_setup(F):
    E = _built(lambda: sphere(F, 2, 1))
    assert sphere_incidence_setup(E)[1].total == len(E) ** 2  # sum_u D(u)


def _incidence_via_dilation(F):
    P = _built(lambda: sphere(F, 2, 1))
    H = HyperplaneMultiset.build(F, 2, [((1, 2), 3, 1), ((0, 1), 5, 2)])
    assert incidence_via_dilation(P, H) == count_incidences(P, H)


def _fourier_direct(F):
    E = PointSet.build(F, 2, [(1, 2), (3, 4)])
    assert abs(fourier_direct(E)[0] - 2 / 49) < 1e-15


# each case's first charge at the default, made by the kernel under test
REFUSALS = {
    _pair_counts: "pair counts needs 100 units",
    _paraboloid: "paraboloid enumeration needs 49 units",
    _sphere_incidence_setup: "F_7 lookup tables needs 49 units",
    _incidence_via_dilation: "F_7 lookup tables needs 49 units",
    _fourier_direct: "direct Fourier transform needs 98 units",  # q^d |E|
}


@pytest.mark.parametrize("call", list(REFUSALS))
def test_kernels_charge_the_scope_not_the_default(low_default, f7, call):
    with pytest.raises(BudgetExceeded, match=f"^{REFUSALS[call]}, budget is 48$"):
        call(f7)
    with budget_scope(10 ** 6):
        call(f7)


def test_the_spectrum_charges_its_span_test_and_the_grid_it_transforms():
    # 0 and four unit digit vectors of (Z/5)^8 = F_25^4: the span test charges
    # |E| rd = 5 * 8 units, the transform the 5^4 cells of the span, not 25^4
    E = PointSet.from_codes(field_create(5, 2), 4, [0, 1, 5, 25, 125])
    with budget_scope(39), pytest.raises(
            BudgetExceeded, match="^affine span test needs 40 units, budget is 39$"):
        spectrum(E)
    with budget_scope(624), pytest.raises(
            BudgetExceeded, match="^fast Fourier transform needs 625 units, budget is 624$"):
        spectrum(E)
    with budget_scope(625):
        S = spectrum(E)
    assert S.sup == S.zero == pytest.approx((5 / 25 ** 4) ** 2, rel=1e-12)


def test_the_d6_witness_spectrum_runs_at_the_default_budget():
    # its 25^6 cells are beyond DEFAULT_BUDGET; its span has 5^4
    E = _built(lambda: conjecture_witness(6, "1/4", 5, 2))
    assert 25 ** 6 > DEFAULT_BUDGET
    S = spectrum(E)
    assert S.sup == S.zero == pytest.approx((len(E) / 25 ** 6) ** 2, rel=1e-12)


def test_a_product_charges_its_factor_passes_and_each_outer_product():
    # the null span of F_25^2 times its unit circle: passes of 25^2 and 24^2
    # units over the factors, then 25 x 289 keys in the outer product, where
    # the direct pass would charge 600^2
    E = _built(lambda: two_set_sharpness(field_create(5, 2), 4)[0])
    span, circle = E.factors
    with budget_scope(7224), pytest.raises(
            BudgetExceeded, match="^product pair counts needs 7225 units, budget is 7224$"):
        pair_counts(E)
    with budget_scope(7225):
        assert pair_counts(E).lam4 == pair_counts(span).lam4 * pair_counts(circle).lam4


def test_the_d6_witness_pair_counts_run_below_its_n_squared():
    # its n^2 = 14 062 500 units would be refused; the largest charge is the
    # pass over its 625-point null-span factor
    E = _built(lambda: conjecture_witness(6, "1/4", 5, 2))
    orbit, span = E.factors
    with budget_scope(len(span) ** 2):
        pairs = pair_counts(E)
    assert len(span) ** 2 < len(E) ** 2 == 14_062_500
    assert pairs.lam4 == pair_counts(orbit).lam4 * pair_counts(span).lam4


def test_a_report_runs_under_its_config_budget(low_default, tmp_path):
    # the pair pass's paraboloid lift reads the norm tables of F_7 under it too
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "construction": {"kind": "random", "p": 7, "d": 2, "size": 10},
        "analyses": ["energy", "distance", "incidence"], "budget": 10 ** 6, "seed": 1}))
    assert main(["verify", "--config", str(path)]) == 0
    with pytest.raises(BudgetExceeded, match="budget is 48"):  # the report's scope has ended
        check_budget(49, "after the report")


def test_leaving_a_scope_restores_the_outer_limit(low_default):
    with budget_scope(100):
        with pytest.raises(BudgetExceeded, match="inner needs 6 units, budget is 5"):
            with budget_scope(5):
                check_budget(6, "inner")
        check_budget(100, "outer")  # refused by the inner scope only
        with budget_scope(1000):
            check_budget(1000, "nested")
        with pytest.raises(BudgetExceeded, match="outer needs 101 units, budget is 100"):
            check_budget(101, "outer")
    with pytest.raises(BudgetExceeded, match="default needs 49 units, budget is 48"):
        check_budget(49, "default")


def test_a_scope_holds_on_its_own_thread_only(low_default):
    refused = []

    def other_thread():
        try:
            check_budget(49, "other thread")
        except BudgetExceeded as exc:
            refused.append(str(exc))

    with budget_scope(10 ** 6):
        check_budget(49, "this thread")
        thread = threading.Thread(target=other_thread)
        thread.start()
        thread.join()
    assert refused == ["other thread needs 49 units, budget is 48"]
