"""The canonical JSON writer against the isinstance-chain oracle."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tropharm.serialize import dumps_canonical

from oracles import dumps_canonical_chain

_floats = st.floats(allow_nan=True, allow_infinity=True)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    _floats,
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 0.1, 1e-310]),
    _floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F)),
)
_arrays = st.one_of(
    st.lists(_floats, max_size=6).map(np.array),
    st.lists(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=2), max_size=3).map(np.array),
    st.lists(st.booleans(), max_size=4).map(np.array),
    _floats.map(np.array),
)
_values = st.recursive(
    st.one_of(_scalars, _arrays),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers(-5, 5)), inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300)
@given(_values)
def test_dumps_canonical_matches_isinstance_chain(obj):
    assert dumps_canonical(obj) == dumps_canonical_chain(obj)
