import pytest

from momentcoords import shapes
from momentcoords.checks import run_suite


@pytest.mark.parametrize("samples", [0, -5])
def test_run_suite_rejects_nonpositive_samples(samples):
    # With no samples the result would hold only the non-sampled properties,
    # all passing.
    with pytest.raises(ValueError, match="samples"):
        run_suite(shapes.convex_quad(), samples, seed=0)
