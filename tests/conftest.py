import sys
from pathlib import Path

import pytest

# tests/ holds the oracles; pyproject.toml puts src/ on the path for an
# uninstalled checkout
sys.path.insert(0, str(Path(__file__).parent))

from hulldial import cli, code, dial, eaqec, matrix
from hulldial.field import Field, make_quadratic_field
from hulldial.code import LinearCode
from hulldial.grs import MultiplierProblem, construct_family, full_field_rs, solve_multipliers


@pytest.fixture(scope="session")
def gf9():
    return Field(3, 2)


@pytest.fixture(scope="session")
def gf16():
    return make_quadratic_field(4)


@pytest.fixture(scope="session")
def gf25():
    return make_quadratic_field(5)


@pytest.fixture(scope="session")
def rs92(gf9):
    """The [9, 2, 8] full-evaluation code over GF(9) used throughout."""
    return full_field_rs(gf9, 2).code()


@pytest.fixture(scope="session")
def self_orthogonal_corpus(gf9, gf16, gf25):
    """Named Hermitian self-orthogonal witnesses across q in {3, 4, 5}."""
    corpus: list[tuple[str, LinearCode]] = []
    for field, q in ((gf9, 3), (gf16, 4), (gf25, 5)):
        for k in range(1, q):
            corpus.append((f"full-field q={q} k={k}", full_field_rs(field, k).code()))
    corpus.append(("all-ones [9,1]", LinearCode(gf9, [[1] * 9])))
    res = solve_multipliers(MultiplierProblem(gf9, tuple(range(1, 9)), 1))
    assert res.found
    corpus.append(("[8,1] on GF(9)*", res.grs.code()))
    res = solve_multipliers(MultiplierProblem(gf9, tuple(range(9)), 1, extended=True))
    assert res.found
    corpus.append(("[10,1] extended", res.grs.code()))
    res = construct_family(gf9, "trace-poly", k=2, g=[0, 1])
    assert res.found
    corpus.append(("[6,2] trace-poly", res.grs.code()))
    res = construct_family(gf25, "subgroup", k=2, m=3)
    assert res.found
    corpus.append(("[8,2] subgroup q=5", res.grs.code()))
    return corpus


@pytest.fixture
def table_draws(monkeypatch):
    """The (n, k) pairs the table walk takes from each family, in order.

    A family is listed once the walk draws a run from it.  Its pairs are
    those of the runs the walk returns with it as their first tag, so the
    run cut at max_rows counts only up to its cut.  Drawing a 1001st run
    from one family fails at once, so a table walk that stopped being lazy
    fails fast instead of filling memory.
    """
    drawn: dict[str, list[tuple[int, int]]] = {}
    families, walk = eaqec._families, eaqec._table_blocks

    def recording(family):
        def runs():
            for count, run in enumerate(family.runs()):
                assert count < 1000, f"drew over 1000 {family.name} runs"
                drawn.setdefault(family.name, [])
                yield run

        return family._replace(runs=runs)

    def walking(*args):
        runs = walk(*args)
        for n, lo, hi, tags, _ in runs:
            drawn[tags[0]] += [(n, k) for k in range(lo, hi + 1)]
        return runs

    monkeypatch.setattr(
        eaqec, "_families",
        lambda q, include_generic: [recording(f) for f in families(q, include_generic)],
    )
    monkeypatch.setattr(eaqec, "_table_blocks", walking)
    monkeypatch.setattr(cli, "_table_blocks", walking)
    return drawn


@pytest.fixture
def eliminations(monkeypatch):
    """Every matrix that ``rref`` row-reduces, once per elimination, in call order.

    A call that returns the result already kept on the matrix is not
    listed; any other call is.  The list holds the matrices themselves, so
    callers can pick out one by identity.
    """
    reduced = []
    original = matrix.rref

    def recording(m):
        kept = m._reduced
        result = original(m)
        if result is not kept:
            reduced.append(m)
        return result

    for module in (matrix, code, dial):
        monkeypatch.setattr(module, "rref", recording)
    return reduced
