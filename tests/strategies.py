"""Hypothesis strategies for the edge settings the exact identities and the
sampler must survive: components 0, +-1 and -0.0, knot-aligned |a_k| = j/n,
and b = +-a."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from oracles import random_unit_vector

SIGNS = st.sampled_from([1.0, -1.0])


@st.composite
def edge_setting(draw, n):
    """Axis vectors with signed zeros, knot-aligned |a_k| = j/n, or a random
    unit vector.  A random sign times 0.0 gives -0.0 as well as 0.0."""
    kind = draw(st.sampled_from(["axis", "knot", "random"]))
    if kind == "random":
        return random_unit_vector(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    if kind == "axis":
        vec = [0.0, 0.0, 0.0]
        vec[draw(st.integers(0, 2))] = 1.0
    else:
        # two components on knots, the third fills up the unit norm
        j1 = draw(st.integers(0, n))
        j2 = draw(st.integers(0, math.isqrt(n * n - j1 * j1)))
        x, y = j1 / n, j2 / n
        vec = draw(st.permutations([x, y, math.sqrt(max(1.0 - x * x - y * y, 0.0))]))
    return np.array([draw(SIGNS) * c for c in vec])


@st.composite
def edge_pair(draw, n):
    """(a, b) of edge settings at order n, with b = a, b = -a or b drawn apart."""
    a = draw(edge_setting(n))
    kind = draw(st.sampled_from(["same", "negated", "apart"]))
    if kind == "apart":
        return a, draw(edge_setting(n))
    return a, (a if kind == "same" else -a)


@st.composite
def edge_cases(draw):
    """(n, a, b) over n in [4, 64], with b = a, b = -a or b drawn apart."""
    n = draw(st.integers(4, 64))
    return (n, *draw(edge_pair(n)))
