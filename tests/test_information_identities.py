"""Differential properties of the information quantities.

Each pair computes one quantity along two routes through the shared
log-ratio kernels, over 2-5-letter laws and channels with zero entries
forced in.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from jsccdisp import (
    Channel,
    Distribution,
    divergence_variance,
    entropy,
    kl_divergence,
    mutual_information,
    unconditional_information_variance,
)
from jsccdisp.probcore import _joint_mutual_information

TOL = 1e-12

sizes = st.integers(2, 5)


@st.composite
def laws(draw, k):
    """A law on k letters with at least one zero entry."""
    w = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                               min_size=k, max_size=k)))
    zero = draw(st.integers(0, k - 1))
    w[zero] = 0.0
    if not w.any():
        w[(zero + 1) % k] = 1.0
    return w / w.sum()


@st.composite
def pairs(draw):
    """(phi, W) on 2-5 input and output letters, zeros in phi and every row."""
    nx, ny = draw(sizes), draw(sizes)
    phi = Distribution(draw(laws(nx)))
    w = Channel(np.array([draw(laws(ny)) for _ in range(nx)]))
    return phi, w


def joint_and_product(phi, w):
    joint = phi.probs[:, None] * w.matrix
    product = np.outer(phi.probs, phi.probs @ w.matrix)
    return Distribution(joint.ravel()), Distribution(product.ravel())


@given(pairs())
def test_mutual_information_is_divergence_from_product(pair):
    phi, w = pair
    assert math.isclose(mutual_information(phi, w),
                        kl_divergence(*joint_and_product(phi, w)),
                        rel_tol=0.0, abs_tol=TOL)


@given(pairs())
def test_information_variance_is_divergence_variance(pair):
    phi, w = pair
    assert math.isclose(unconditional_information_variance(phi, w),
                        divergence_variance(*joint_and_product(phi, w)),
                        rel_tol=0.0, abs_tol=TOL)


@given(sizes.flatmap(laws))
def test_entropy_is_log_k_minus_divergence_from_uniform(probs):
    k = probs.size
    p = Distribution(probs)
    uniform = Distribution(np.full(k, 1.0 / k))
    assert math.isclose(entropy(p), math.log(k) - kl_divergence(p, uniform),
                        rel_tol=0.0, abs_tol=TOL)


@st.composite
def count_tables(draw):
    """A batch of 1-4 count tables of one 2-5 x 2-5 shape, zeros forced in."""
    nx, ny, size = draw(sizes), draw(sizes), draw(st.integers(1, 4))
    cells = st.lists(st.integers(0, 40), min_size=nx * ny, max_size=nx * ny)
    tables = np.array([draw(cells) for _ in range(size)]).reshape(size, nx, ny)
    tables[:, 0, -1] = 0
    tables[:, -1, 0] += 1  # every table counts at least one pair
    return tables


@given(count_tables())
def test_empirical_mi_of_counts_is_mutual_information_of_their_law(tables):
    got = _joint_mutual_information(tables)
    assert got.shape == (tables.shape[0],)
    for table, mi in zip(tables, got):
        rows = table.sum(axis=1)
        phi = Distribution(rows / rows.sum())
        ny = table.shape[1]
        w = Channel(np.array([t / r if r else np.full(ny, 1.0 / ny)
                              for t, r in zip(table, rows)]))
        assert math.isclose(mi, mutual_information(phi, w),
                            rel_tol=0.0, abs_tol=TOL)
