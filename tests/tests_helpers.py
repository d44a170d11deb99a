"""Small helpers shared across test files."""

import os
from fractions import Fraction

import phinlab
from phinlab.linalg import Matrix


def child_env():
    """The environment with the imported package's source directory first on
    PYTHONPATH, so a child interpreter imports the same phinlab."""
    src = os.path.dirname(os.path.dirname(phinlab.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def random_unimodular(rng, n, spread=2):
    """Random integer matrix with determinant +-1 (L * U * P form)."""
    lo = [[Fraction(1) if i == j else Fraction(rng.randint(-spread, spread)) if i > j else Fraction(0)
           for j in range(n)] for i in range(n)]
    up = [[Fraction(1) if i == j else Fraction(rng.randint(-spread, spread)) if i < j else Fraction(0)
           for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    pm = [[Fraction(1) if perm[i] == j else Fraction(0) for j in range(n)] for i in range(n)]
    return Matrix(lo) @ Matrix(up) @ Matrix(pm)


def matrix_power(m, k):
    """m^k for a square Matrix m and an integer k >= 0."""
    out = Matrix.identity(m.nrows)
    for _ in range(k):
        out = out @ m
    return out
