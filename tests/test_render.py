"""The report writer against stdlib json (needs hypothesis).

`oracle` is the renderer `analysis.render_report` replaced: a copy of the
report in JSON-ready form, encoded by `json.dumps(..., sort_keys=True,
indent=2)`. The writer must give the same bytes for every value with str
keys that the oracle renders, and raise TypeError wherever the oracle does.
"""

import gc
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from fqsalem.analysis import render_report  # noqa: E402
from fqsalem.harness import run  # noqa: E402

ROOT = Path(__file__).resolve().parent
CONFIG_DIR = ROOT.parent / "configs"


def _fmt(value):
    """Canonical JSON-ready form: ints/Fractions as strings, floats to 12 sig digits."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple, frozenset, set)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_fmt(v) for v in items]
    return value


def oracle(report) -> str:
    return json.dumps(_fmt(report), sort_keys=True, indent=2) + "\n"


def _report(name: str) -> dict:
    return run(json.loads((CONFIG_DIR / f"{name}.json").read_text()))


@pytest.mark.parametrize("name", ["isotropic-f5-d4", "orbit-q27", "ranges"])
def test_shipped_reports_match_the_oracle(name):
    report = _report(name)
    assert render_report(report) == oracle(report)


def test_ranges_report_matches_its_golden():
    # the one shipped report without Fourier floats: its bytes are the same
    # on every numpy build
    golden = (ROOT / "golden" / "ranges.json").read_text()
    assert render_report(_report("ranges")) == golden


@pytest.mark.parametrize("value", [
    np.int64(3), np.bool_(True), np.float32(0.5), {"a": [1, np.int64(2)]},
    {1, "a"}, frozenset({Fraction(1, 2), "b"}), object()],
    ids=["int64", "bool_", "float32", "nested-int64", "mixed-set",
         "mixed-frozenset", "object"])
def test_unserializable_values_raise_type_error(value):
    with pytest.raises(TypeError):
        oracle(value)
    with pytest.raises(TypeError):
        render_report(value)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, {"a": 1, 2: "b"}])
def test_non_str_keys_raise_type_error(value):
    # json would write 1 as "1"; no report has a key that is not a str
    with pytest.raises(TypeError):
        render_report(value)


def test_a_render_leaves_no_garbage():
    # with a reference cycle, each render's pieces would live until the
    # cyclic GC ran
    report = _report("ranges")
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        render_report(report)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# quotes, backslashes, control characters, non-ASCII and lone surrogates
SPECIAL = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", " ", "\U0001f600",
           "\ud800", "\udfff"]
TEXT = st.text(st.one_of(st.characters(), st.sampled_from(SPECIAL)), max_size=8)
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308, 1e-300, 1e300]))
INTS = st.one_of(st.integers(), st.integers(min_value=2 ** 64, max_value=2 ** 200),
                 st.integers(max_value=-2 ** 64, min_value=-2 ** 200))
LEAVES = st.one_of(st.none(), st.booleans(), INTS, st.fractions(), FLOATS, TEXT)
# set members must be comparable with one another: sorted() orders them
SETS = st.one_of(st.sets(st.one_of(INTS, st.fractions(), st.booleans()), max_size=5),
                 st.frozensets(TEXT, max_size=5), st.sets(FLOATS, max_size=5))
VALUES = st.recursive(
    st.one_of(LEAVES, SETS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=30)


@settings(max_examples=150, deadline=None)
@given(VALUES)
def test_writer_matches_the_oracle(value):
    assert render_report(value) == oracle(value)
