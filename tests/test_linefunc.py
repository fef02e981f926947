import numpy as np
import pytest

from isphalf.errors import ValidationError
from isphalf.linefunc import Analyticity, LineMatrixFunction, make_grid


def test_make_grid_conventions():
    g = make_grid(100.0, 4096)
    assert len(g) == 4096
    assert g[0] == -100.0
    assert g[-1] == pytest.approx(100.0 - 200.0 / 4096)
    assert 0.0 in g  # needed by the pointwise examples
    with pytest.raises(ValidationError):
        make_grid(100.0, 1000)  # not a power of two
    with pytest.raises(ValidationError):
        make_grid(-1.0, 512)


def test_values_shape_checks():
    g = make_grid(10.0, 8)
    LineMatrixFunction(g, np.zeros((8, 2, 2)))
    LineMatrixFunction(g, np.zeros(8))  # scalar promoted
    with pytest.raises(ValidationError):
        LineMatrixFunction(g, np.zeros((7, 2, 2)))
    with pytest.raises(ValidationError):
        LineMatrixFunction(g, np.zeros((8, 2, 3)))
    with pytest.raises(ValidationError):
        LineMatrixFunction(g[::-1], np.zeros((8, 1, 1)))


def test_pointwise_algebra_and_norms():
    g = make_grid(10.0, 16)
    a = LineMatrixFunction(g, np.tile(np.eye(2), (16, 1, 1)) * 2.0)
    b = LineMatrixFunction(g, np.tile(np.array([[0.0, 1.0], [0.0, 0.0]]), (16, 1, 1)))
    s = a + b
    assert s.values[0, 0, 1] == 1.0
    assert (a - a).sup_norm() == 0.0
    assert b.left_mul(np.diag([3.0, 1.0])).values[0, 0, 1] == 3.0
    assert b.right_mul(np.diag([1.0, 4.0])).values[0, 0, 1] == 4.0


def test_at():
    g = make_grid(8.0, 16)
    f = LineMatrixFunction(g, g.astype(complex))
    assert f.at(0.0)[0, 0] == 0.0
    assert f.at(g[3])[0, 0] == pytest.approx(g[3])
    with pytest.raises(ValidationError):
        f.at(0.123456)


def test_tags():
    with pytest.raises(ValidationError):
        Analyticity("sideways", 1.0)
    assert Analyticity("plus", 0.5).finite_delta == 0.5
    assert Analyticity("strip", np.inf).finite_delta == 0.0
    assert Analyticity("none", 0.5).finite_delta == 0.0
