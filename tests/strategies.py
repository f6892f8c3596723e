"""Diagram strategies and helpers shared by the test modules."""

from hypothesis import strategies as st

from clasptools.diagram import Diagram
from clasptools.tangle import closed_braid


@st.composite
def braid_closures(draw, max_strands=5, max_len=7, min_strands=2, min_len=1):
    """Closures of random braid words on min_strands..max_strands strands."""
    n = draw(st.integers(min_strands, max_strands))
    letters = st.integers(1, n - 1).flatmap(lambda g: st.sampled_from([g, -g]))
    return closed_braid(draw(st.lists(letters, min_size=min_len, max_size=max_len)), n)


def listed(d, order):
    """d with its crossings listed in the given order of their indices."""
    return Diagram._trusted([d.crossings[i] for i in order], [d.signs[i] for i in order],
                            d.free_loops)
