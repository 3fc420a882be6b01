import pytest

from ellfm.base_geometry import make_base


@pytest.fixture(scope="session")
def P2():
    return make_base("P2")


@pytest.fixture(scope="session")
def F0():
    return make_base("F0")


@pytest.fixture(scope="session")
def F1():
    return make_base("F1")


@pytest.fixture(scope="session", params=["P2", "F0", "F1"])
def any_base(request):
    return make_base(request.param)


@pytest.fixture
def quadric_json():
    """F0 as a JSON base under another name."""
    return {"name": "quadric", "gram": [[0, 1], [1, 0]], "canonical": [-2, -2],
            "effective": [[1, 0], [0, 1]]}


@pytest.fixture
def f1_he_json():
    """F1 in the basis (h, e) with h^2 = 1, e^2 = -1: effective cone spanned
    by e and the ruling h - e, and named like the preset."""
    return {"name": "F1", "gram": [[1, 0], [0, -1]], "canonical": [-3, 1],
            "effective": [[0, 1], [1, -1]]}
