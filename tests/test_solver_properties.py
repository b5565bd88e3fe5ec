"""Properties of the two simplex solves: the fixed-slope rate-distortion
problem inside ``rdf``/``distortion_rate`` and ``capacity``.

Both run on the same Newton kernel. The properties draw the inputs on
which first-order updates converge sublinearly: zero-mass source letters,
more reproduction letters than source letters, duplicate reproduction
columns, and channels with duplicate or near-duplicate rows.
"""

import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from jsccdisp import (
    Channel,
    Distribution,
    SourceSpec,
    capacity,
    d_max,
    distortion_rate,
    mutual_information,
    rdf,
)

TOL = 1e-10

weights = st.floats(1e-3, 1.0)


@st.composite
def sources(draw):
    """A 2-5-letter source, maybe with a zero-mass letter, with a distortion
    matrix of 2-7 columns, one zero per row, maybe with a duplicate column."""
    k = draw(st.integers(2, 5))
    m = draw(st.integers(2, 6))
    p = np.array(draw(st.lists(weights, min_size=k, max_size=k)))
    if draw(st.booleans()):
        p[draw(st.integers(0, k - 1))] = 0.0
    cells = st.lists(st.floats(0.05, 3.0), min_size=k * m, max_size=k * m)
    d = np.array(draw(cells)).reshape(k, m)
    for row in range(k):
        d[row, draw(st.integers(0, m - 1))] = 0.0
    if draw(st.booleans()):
        d = np.hstack([d, d[:, [draw(st.integers(0, m - 1))]]])
    return SourceSpec(Distribution(p / p.sum()), d)


@given(sources(), st.floats(0.02, 0.95))
def test_distortion_rate_inverts_rdf(src, fraction):
    assume(d_max(src) > 1e-3)  # else one column is free for every letter
    d = fraction * d_max(src)
    rate = rdf(src, d).rate
    assert math.isfinite(rate) and rate > 0.0
    assert math.isclose(distortion_rate(src, rate), d, rel_tol=0.0, abs_tol=1e-8)


@st.composite
def channels(draw):
    """A 2-6 x 2-6 channel whose second row is a copy of the first, exact
    or moved by at most 1e-4 in each entry."""
    nx, ny = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    rows = [np.array(draw(st.lists(weights, min_size=ny, max_size=ny)))
            for _ in range(nx)]
    shift = np.array(draw(st.lists(st.floats(-1e-4, 1e-4), min_size=ny,
                                   max_size=ny)))
    rows[1] = rows[0] / rows[0].sum() + draw(st.sampled_from([0.0, 1.0])) * shift
    mat = np.abs(np.array(rows))
    return Channel(mat / mat.sum(axis=1, keepdims=True))


@given(channels())
def test_capacity_bracket_holds_the_mutual_information(w):
    res = capacity(w, TOL)
    assert res.upper_bound - res.lower_bound <= TOL
    mi = mutual_information(res.input_distribution, w)
    # the two routes to I(phi, W) round differently by a few ulp
    assert res.lower_bound - 1e-14 <= mi <= res.upper_bound + 1e-14
