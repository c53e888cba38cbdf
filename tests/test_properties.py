"""Property tests: the vectorized grid search against exhaustive search
over the whole (h, w) lattice."""

from hypothesis import given, settings, strategies as st

from semroi.oracles import grid_size_exhaustive
from semroi.sampler import RoIBox, dynamic_grid_size

# derandomized, so every run of the suite draws the same examples
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(
    log_aspect=st.floats(-4.0, 4.0),
    width=st.floats(0.5, 100.0),
    budget=st.integers(1, 1024),
)
def test_grid_matches_exhaustive_over_aspect_ratios(log_aspect, width, budget):
    box = RoIBox(0.0, 0.0, width, width * 10.0**log_aspect)
    assert dynamic_grid_size(box, budget) == grid_size_exhaustive(box, budget)


@PROPERTY
@given(
    rows=st.integers(1, 64),
    cols=st.integers(1, 64),
    budget=st.integers(1, 1024),
)
def test_grid_matches_exhaustive_at_exact_ratios(rows, cols, budget):
    # integer sides make rows/cols exact, where several grids tie on the
    # ratio and only the area and row tie-breaks decide
    box = RoIBox(1.0, 2.0, 1.0 + cols, 2.0 + rows)
    assert dynamic_grid_size(box, budget) == grid_size_exhaustive(box, budget)
