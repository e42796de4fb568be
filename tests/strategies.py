"""Hypothesis strategies shared by the property tests."""

from fractions import Fraction as F

from hypothesis import strategies as st

from abmod import TruncSeries
from abmod.frescos import FrescoPresentation, fresco_from_presentation


@st.composite
def geometric_fresco(draw, max_prec=16, min_prec=8):
    """The module of a geometric fresco of rank 1-3 at precision
    min_prec..max_prec with non-constant units.  Rank 2 and 3 frescos have
    no simple pole."""
    prec = draw(st.integers(min_prec, max_prec))
    k = draw(st.integers(1, 3))
    factors = []
    for j in range(1, k + 1):
        # lambda_j + j - k > 0 keeps every product-formula root negative
        lam = draw(st.sampled_from([F(1, 3), F(1, 2), F(2, 3), F(1)])) \
            + (k - j) + draw(st.integers(0, 1))
        c1 = draw(st.sampled_from([F(-1), F(1, 2), F(2)]))
        c2 = draw(st.sampled_from([F(0), F(1), F(-1, 3)]))
        factors.append((lam, TruncSeries([1, c1, c2], prec)))
    return fresco_from_presentation(
        FrescoPresentation(factors, prec), prec).module
