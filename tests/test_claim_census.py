"""One claim, one check: no registry check restates a claim that another
check already makes.

The census is static.  It reads ``twistkit/checks.py``, takes
``ast.unparse`` of every ``yield`` value and groups the expressions by the
top-level function they are written in: a check by its id, a shared helper
such as ``_closed_form_residuals`` by its name.  An expression with more
than one home is either declared below, with the reason its homes make
different claims, or a restated claim, which belongs in one check only.
The census sees the text of a claim, not its meaning, so a restatement in
other words (``close(eng, 2 * single)`` against ``close(dbl_eng, 2 *
man_eng)``) has to be found by reading.
"""

import ast
import inspect
from collections import defaultdict

from twistkit import checks

#: expression -> (its homes in source order, why it is not one claim twice)
DECLARED_REPEATS = {
    "close(f2[mu], f[mu])": (
        ("axioms.fluctuation_round_trip", "gauge.potential_shift_laws"),
        "the chiral potential read back from its own fluctuation, and kept by a matched "
        "gauge phase",
    ),
    "close(g2[mu], g[mu])": (
        ("axioms.fluctuation_round_trip", "doubled.selfadjoint_fluctuations"),
        "the vector potential read back from selfadjoint_fluctuation, and from "
        "fluctuation_from_z at imaginary z",
    ),
    "_fail_unless(abs(eng) > 1e-06)": (
        ("_closed_form_residuals", "actions.graded_commutativity"),
        "non-vacuity guard of a different engine value in each home",
    ),
    "_fail_unless(abs(p_uv) > 1e-06)": (
        ("actions.term_symmetry_split", "actions.twisted_pairing_antisymmetry"),
        "non-vacuity guard of a different pairing in each home",
    ),
}


def _check_id(node: ast.FunctionDef):
    """The id a ``@check(...)`` decorator registers ``node`` under, else None."""
    for deco in node.decorator_list:
        if isinstance(deco, ast.Call) and getattr(deco.func, "id", None) == "check":
            return deco.args[0].value
    return None


def yield_census(source: str) -> dict[str, tuple[str, ...]]:
    """Every yield expression of ``source`` with more than one home, mapped to
    its homes in source order."""
    homes = defaultdict(dict)
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            home = _check_id(node) or node.name
            for sub in ast.walk(node):
                if isinstance(sub, ast.Yield) and sub.value is not None:
                    homes[ast.unparse(sub.value)][home] = None
    return {expr: tuple(found) for expr, found in homes.items() if len(found) > 1}


def test_no_claim_is_restated():
    census = yield_census(inspect.getsource(checks))
    assert census == {expr: found for expr, (found, _) in DECLARED_REPEATS.items()}


def test_census_reads_every_check():
    tree = ast.parse(inspect.getsource(checks))
    ids = [_check_id(node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert [i for i in ids if i] == [spec.check_id for spec in checks.REGISTRY]


def test_census_finds_a_restated_claim():
    source = '''
@check("g.first", 1e-12, "a")
def _first(rng, cfg):
    yield close(a @ b, b @ a)
    yield abs(x)

@check("g.second", 1e-12, "b")
def _second(rng, cfg):
    for _ in range(2):
        yield close(a @ b,  b@a)

def _helper(x):
    yield abs(x)
'''
    assert yield_census(source) == {
        "close(a @ b, b @ a)": ("g.first", "g.second"),
        "abs(x)": ("g.first", "_helper"),
    }
