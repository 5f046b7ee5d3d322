"""No floating point and no unreduced int64 contraction in the package.

An AST scan of every ``src/starpolar/*.py`` file fails on a float or
complex literal, any use of the builtin ``float``, ``sqrt``/``log``/``exp``
from ``math`` or numpy, numpy's true division ``divide``/``true_divide``
(which turns int64 arrays into float64), and a numpy float dtype
(``np.float64``, or a dtype string such as ``"float32"`` or ``"f8"``).
Every answer of the package is exact, so none of these has a place in it.

It fails on any use of ``numpy.linalg`` (an attribute chain, a
``from``-import or a module import), whose routines compute in float64,
and on ``np.mean``/``np.average``, which return floats.

It also fails on a numpy contraction: the ``@`` operator, ``np.dot``,
``np.matmul``, ``np.einsum``, ``np.tensordot``, ``np.inner``, ``np.vdot``
and the ``.dot`` method.  On int64 residues mod p < 2^31 each product is
below 2^62, so a sum of three or more of them can wrap silently; every
mod-p sum in the package reduces its products before adding them.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "starpolar"
FLOAT_FUNCTIONS = {"sqrt", "log", "log2", "log10", "log1p", "exp", "exp2", "expm1"}
FLOAT_MODULES = {"math", "np", "numpy"}
NUMPY_FLOAT_NAMES = {"divide", "true_divide", "mean", "average", "linalg"}
FLOAT_DTYPE = re.compile(r"float\d*|floating|double|half|single|longdouble|f\d+")
NUMPY_CONTRACTIONS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}


def violations(source: str, filename: str = "<snippet>"):
    """(line, description) of every floating-point construct and every
    numpy contraction in the source."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"{type(node.value).__name__} literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "builtin float"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module, attr = node.value.id, node.attr
            if module in FLOAT_MODULES and attr in FLOAT_FUNCTIONS:
                found.append((node.lineno, f"{module}.{attr}"))
            elif module in ("np", "numpy") and (attr in NUMPY_FLOAT_NAMES | NUMPY_CONTRACTIONS
                                                or FLOAT_DTYPE.fullmatch(attr.rstrip("_"))):
                found.append((node.lineno, f"{module}.{attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found.append((node.lineno, "from numpy.linalg import"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy.linalg":
                    found.append((node.lineno, "import numpy.linalg"))
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy"):
            for alias in node.names:
                if (alias.name in FLOAT_FUNCTIONS | NUMPY_FLOAT_NAMES | NUMPY_CONTRACTIONS
                        or FLOAT_DTYPE.fullmatch(alias.name)):
                    found.append((node.lineno, f"from {node.module} import {alias.name}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "contraction by @"))
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "dot":
                found.append((node.lineno, "contraction by .dot"))
            for arg in [*node.args, *(k.value for k in node.keywords)]:
                if (isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                        and FLOAT_DTYPE.fullmatch(arg.value)):
                    found.append((node.lineno, f"dtype string {arg.value!r}"))
    return found


def test_package_has_no_floating_point():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 8
    found = [f"{path.name}:{line}: {what}" for path in sources
             for line, what in violations(path.read_text(), str(path))]
    assert not found, "floating point in the package:\n" + "\n".join(found)


@pytest.mark.parametrize("snippet", [
    "x = 0.5",
    "x = 1e3",
    "x = 2j",
    "x = float(3)",
    "x = isinstance(y, float)",
    "a = np.zeros(3, dtype=float)",
    "import math\nx = math.sqrt(2)",
    "import math\nx = math.log(2)",
    "import math\nx = math.exp(2)",
    "from math import sqrt",
    "x = np.exp(a)",
    "a = np.zeros(3, dtype=np.float64)",
    "a = numpy.float32(1)",
    "a = b.astype('float32')",
    "a = np.array(b, dtype='f8')",
    "x = np.true_divide(a, p)",
    "x = np.divide(a, p)",
    "x = numpy.true_divide(a, p)",
    "from numpy import divide",
    "r = np.linalg.matrix_rank(M)",
    "x = np.linalg.det(M)",
    "x = numpy.linalg.solve(A, b)",
    "from numpy.linalg import solve",
    "import numpy.linalg as la",
    "import numpy.linalg",
    "from numpy import linalg",
    "x = np.mean(M)",
    "x = np.average(M)",
    "from numpy import mean",
])
def test_guard_flags_floating_point(snippet):
    assert violations(snippet)


@pytest.mark.parametrize("snippet", [
    "x = a @ b",
    "a @= b",
    "x = (a @ b) % p",
    "x = np.dot(a, b)",
    "x = np.matmul(a, b) % p",
    "x = np.einsum('ij,jk->ik', a, b)",
    "x = numpy.tensordot(a, b, axes=1)",
    "x = np.inner(a, b)",
    "x = np.vdot(a, b)",
    "from numpy import einsum",
    "from numpy import dot as d",
    "x = a.dot(b)",
])
def test_guard_flags_int64_contractions(snippet):
    assert violations(snippet)


@pytest.mark.parametrize("snippet", [
    "x = 1 // 2",
    "x = Fraction(1, 2)",
    "a = np.zeros(3, dtype=np.int64)",
    "import math\nx = math.comb(5, 2) + math.isqrt(10)",
    "x = 'float'.upper()",
    "np.floor_divide(a, p, out=b)",
    "x = (a * b % p).sum(axis=1) % p",
    "np.add.at(grads, rows, block % p)",
    "x = sum(map(mul, row, point)) % p",
    "@cached_property\ndef f(self):\n    return 1",
    "from . import linalg\nr = linalg.rank(rows)",
    "x = linalg.det(rows)",
])
def test_guard_passes_exact_code(snippet):
    assert violations(snippet) == []
