"""Shared builders: the worked-example tables used across the suite, and
the search kernels, the compiled one built from source."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import homstruct as hs
from homstruct import _kernels
from homstruct._kernels import pykern

F = hs.QQ


def product(n, entries):
    z = F.zero
    c = [[[z] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), val in entries.items():
        c[i][j][k] = F.coerce(val)
    return hs.ProductTensor(F, c)


def coproduct(n, entries):
    z = F.zero
    d = [[[z] * n for _ in range(n)] for _ in range(n)]
    for (k, i, j), val in entries.items():
        d[k][i][j] = F.coerce(val)
    return hs.CoproductTensor(F, d)


def lmap(rows):
    return hs.LinearMap(F, tuple(tuple(F.coerce(x) for x in row)
                                 for row in rows))


def vec(coords):
    return hs.Vector(F, tuple(F.coerce(x) for x in coords))


@pytest.fixture
def hom3dim():
    """3-dim twisted-associative table at parameters 1 and 2."""
    mu = product(3, {(0, 0, 0): 1, (1, 1, 1): 1, (0, 1, 1): 1, (1, 0, 1): 1,
                     (1, 2, 2): 2, (0, 2, 2): 2, (2, 0, 2): 2})
    return hs.HomAlgebra(mu, lmap([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))


@pytest.fixture
def unital2dim():
    """2-dim unital table; twist collapses everything onto e2."""
    mu = product(2, {(0, 0, 0): 1, (1, 1, 1): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    return hs.HomAlgebra(mu, lmap([[0, 0], [1, 1]]), vec([1, 0]))


@pytest.fixture
def coalg2dim():
    return hs.HomCoalgebra(coproduct(2, {(0, 1, 1): 1, (1, 1, 1): 1}),
                           lmap([[0, 0], [1, 1]]))


@pytest.fixture
def counital2dim(coalg2dim):
    return hs.HomCoalgebra(coalg2dim.delta, coalg2dim.alpha, lmap([[0, 1]]))


@pytest.fixture
def ex1(unital2dim):
    """2-dim table published as a bialgebra; evaluation refutes it."""
    delta = coproduct(2, {(0, 0, 0): 1, (1, 0, 0): 1})
    return hs.HomBialgebra(unital2dim.mu, vec([1, 0]), delta, lmap([[1, 0]]),
                           unital2dim.alpha)


@pytest.fixture
def mu2_table():
    """Second 2-dim product: square-zero generator."""
    return product(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})


@pytest.fixture
def twohom2dim(unital2dim, mu2_table):
    return hs.TwoHomStructure("2-hom-assoc-algebra", unital2dim.mu, mu2_table,
                              unital2dim.alpha, vec([1, 0]))


@pytest.fixture
def ex2(unital2dim, mu2_table, ex1):
    return hs.TwoHomStructure("2-hom-assoc-bialgebra", unital2dim.mu,
                              mu2_table, unital2dim.alpha, vec([1, 0]),
                              delta1=ex1.delta, counit1=ex1.counit)


@pytest.fixture
def ut2():
    """Upper-triangular 2x2 matrices (basis E11, E12, E22) with the inner
    derivation by E12 and identity twist."""
    mu = product(3, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 1): 1, (2, 2, 2): 1})
    d = lmap([[0, 0, 0], [-1, 0, 1], [0, 0, 0]])
    return hs.DifferentialHomAlgebra(
        hs.HomAlgebra(mu, hs.identity_map(F, 3), vec([1, 0, 1])), d)


@pytest.fixture
def kx3():
    """Truncated polynomials: basis 1, x, x^2 with x^3 = 0."""
    mu = product(3, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1,
                     (0, 2, 2): 1, (2, 0, 2): 1, (1, 1, 2): 1})
    return hs.HomAlgebra(mu, hs.identity_map(F, 3), vec([1, 0, 0]))


@pytest.fixture
def mat2():
    """Full 2x2 matrix algebra, basis E11, E12, E21, E22."""
    mu = product(4, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 0): 1, (1, 3, 1): 1,
                     (2, 0, 2): 1, (2, 1, 3): 1, (3, 2, 2): 1, (3, 3, 3): 1})
    return hs.HomAlgebra(mu, hs.identity_map(F, 4), vec([1, 0, 0, 1]))


@pytest.fixture
def z2group():
    mu = product(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1})
    return hs.HomAlgebra(mu, hs.identity_map(F, 2), vec([1, 0]))


@pytest.fixture
def bool2dim(unital2dim):
    return hs.HomAlgebra(unital2dim.mu, hs.identity_map(F, 2), vec([1, 0]))


@pytest.fixture
def dual2dim(mu2_table):
    return hs.HomAlgebra(mu2_table, hs.identity_map(F, 2), vec([1, 0]))


@pytest.fixture
def dim1():
    return hs.HomAlgebra(product(1, {(0, 0, 0): 1}), hs.identity_map(F, 1),
                         vec([1]))


@pytest.fixture
def leibniz2dim():
    return hs.HomLeibniz(product(2, {(0, 0, 1): 1}), hs.identity_map(F, 2))


@pytest.fixture
def half():
    return Fraction(1, 2)


@pytest.fixture(scope="session")
def ckern(tmp_path_factory):
    """``_kernels/_ckern.c`` compiled into a temporary directory (never
    into ``src/``, whose kernel the benchmark runs) and loaded as
    ``homstruct._kernels._ckern``. A Unix compiler builds it with
    ``-Wall -Werror``, and a build that only those flags break fails the
    test; one that fails without them (no compiler, no headers) skips."""
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext
    from setuptools.errors import BaseError, CCompilerError

    class StrictBuild(build_ext):
        def build_extension(self, ext):
            if self.compiler.compiler_type == "unix":
                ext.extra_compile_args = ["-Wall", "-Werror"]
            super().build_extension(ext)

    def build(command):
        ext = Extension("homstruct._kernels._ckern",
                        [str(Path(_kernels.__file__).with_name("_ckern.c"))])
        run = command(Distribution({"ext_modules": [ext]}))
        run.build_lib = str(tmp_path_factory.mktemp("ckern"))
        run.build_temp = str(Path(run.build_lib) / "temp")
        run.ensure_finalized()
        run.run()
        return ext.name, run.get_ext_fullpath(ext.name)

    try:
        name, path = build(StrictBuild)
    except (BaseError, CCompilerError) as exc:
        try:
            build(build_ext)
        except (BaseError, CCompilerError):
            pytest.skip(f"compiled kernel not built: {exc}")
        pytest.fail(f"_ckern.c builds only with warnings: {exc}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compiled(ckern, monkeypatch):
    """The compiled kernel, built from source, behind ``get_kernel``."""
    monkeypatch.setattr(_kernels, "_ckern", ckern)
    monkeypatch.setattr(_kernels, "_compiled",
                        pykern.Kernel("compiled", _kernels._scan))
    return _kernels._compiled
