"""Sign-action oracle: groups, signed orbits, content crosscheck."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import actions
from artifact.cli import main
from artifact.grading import Series, enumerate_monomials, mono_swap
from artifact.strata import Stratum, enumerate_strata, content_series
from artifact.actions import (
    ActionGen, IDENTITY, compose, group_closure, symmetry_action, gen_sign,
    invariant_series, oracle_crosscheck,
)


# The reference action, element by element: the ambient basis of one
# degree and a substitution applied to one of its elements.

def apply_gen(g, s, x):
    """Apply a substitution to an ambient basis element (ea, eb, mono).

    Returns (sign, element), the sign being gen_sign's.
    """
    ea, eb, m = x
    if not g.exchange:
        return gen_sign(g, s, ea, eb), x
    if s.a != s.b:
        raise ValueError("exchange applied to stratum %r with a != b" % (s,))
    return gen_sign(g, s, ea, eb), (eb, ea, mono_swap(m))


def ambient_elements(s, n):
    """Ambient basis elements of total degree n over one stratum."""
    out = []
    ea_range = (0, 1) if (s.a % 2 == 0 and s.a >= 2) else (0,)
    eb_range = (0, 1) if (s.b % 2 == 0 and s.b >= 2) else (0,)
    for ea in ea_range:
        for eb in eb_range:
            md = n - s.thom_degree - ea * s.a - eb * s.b
            if md < 0:
                continue
            for m in enumerate_monomials(s.vars, md):
                out.append((ea, eb, m))
    return out


signs = st.sampled_from([1, -1])
gens = st.builds(ActionGen, st.booleans(), signs, signs, signs, signs, signs)


class TestGroup:
    def test_identity_neutral(self):
        g = ActionGen(True, -1, 1, -1, 1, -1)
        assert compose(g, IDENTITY) == g
        assert compose(IDENTITY, g) == g

    @given(gens)
    def test_self_inverse_generators(self, g):
        gg = compose(g, g)
        # an exchange composed with itself never exchanges again
        assert not gg.exchange or g.exchange is False

    def test_closure_of_nothing(self):
        assert group_closure([]) == [IDENTITY]

    def test_closure_of_sign_flip(self):
        beta = ActionGen(False, -1, -1, 1, -1, -1)
        G = group_closure([beta])
        assert len(G) == 2

    def test_closure_of_fold_square(self):
        G = group_closure(symmetry_action(Stratum(1, 2, 2)))
        assert len(G) == 4

    @given(st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=60)
    def test_stratum_closure_is_closed(self, d, level):
        for s in enumerate_strata(d, level):
            G = group_closure(symmetry_action(s))
            assert len(G) <= 4
            for g in G:
                for h in G:
                    assert compose(g, h) in G


class TestApply:
    def test_plain_sign_flip(self):
        s = Stratum(1, 1, 4)
        beta = ActionGen(False, -1, -1, 1, -1, -1)
        m = ((), (0, 0))
        sign, y = apply_gen(beta, s, (0, 0, m))
        assert sign == 1 and y == (0, 0, m)

    def test_koszul_sign_on_odd_square(self):
        # exchanging U_3 with U_3 transposes two odd symbols
        s = Stratum(1, 3, 3)
        alpha = ActionGen(True, 1, 1, 1, 1, 1)
        m = ((1,), (0,))
        sign, y = apply_gen(alpha, s, (0, 0, m))
        assert sign == -1
        assert y == (0, 0, ((0,), (1,)))

    def test_euler_pair_koszul_cancels(self):
        # even a: both the U pair and the e pair exchange with sign +1
        s = Stratum(1, 2, 2)
        alpha = ActionGen(True, -1, 1, 1, -1, 1)
        m = ((0,), (0,))
        sign, y = apply_gen(alpha, s, (1, 1, m))
        assert sign == 1
        assert y == (1, 1, m)

    def test_euler_factor_absent_for_odd_rank(self):
        s = Stratum(1, 1, 4)
        els = ambient_elements(s, s.thom_degree + 4)
        assert all(ea == 0 for ea, eb, m in els)
        assert {eb for ea, eb, m in els} == {0, 1}

    def test_ambient_count(self):
        s = Stratum(1, 0, 5)
        # degree 9 = Thom 5 + 4: only p'_1
        assert len(ambient_elements(s, 9)) == 1


class TestOracle:
    def test_fold_square_even(self):
        s = Stratum(1, 2, 2)
        inv = invariant_series(s, 12)
        assert [inv[n] for n in range(13)] == \
            [0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2]
        assert inv == content_series(s, 12)

    def test_fold_square_odd(self):
        s = Stratum(1, 3, 3)
        inv = invariant_series(s, 14)
        assert inv == content_series(s, 14)

    def test_euler_only_piece(self):
        # level 3, r = 1: invariants exist only with the Euler factor
        s = Stratum(3, 0, 4, 1)
        inv = invariant_series(s, 15)
        assert inv == content_series(s, 15)
        assert inv[s.thom_degree] == 0
        assert inv[s.thom_degree + 4] == 1

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_crosscheck_small(self, d, level):
        rep = oracle_crosscheck(d, level, 20)
        assert rep.ok, "\n".join(rep.lines())

    def test_report_lines(self):
        rep = oracle_crosscheck(4, 1, 10)
        lines = rep.lines()
        assert len(lines) == 3
        assert all(line.startswith("ok") for line in lines)


def _orbit_walk_series(s, D):
    # the reference count: apply every group element to every ambient
    # element, collect each orbit, and drop it when an element fixing
    # its first member has sign -1
    G = group_closure(symmetry_action(s))
    c = [0] * (D + 1)
    for n in range(s.thom_degree, D + 1):
        seen = set()
        for x in ambient_elements(s, n):
            if x in seen:
                continue
            orbit = set()
            dead = False
            for g in G:
                sign, y = apply_gen(g, s, x)
                orbit.add(y)
                if y == x and sign < 0:
                    dead = True
            seen.update(orbit)
            if not dead:
                c[n] += 1
    return Series(c, D)


@pytest.mark.parametrize("d", range(1, 15))
def test_sign_tables_match_the_orbit_walk(d):
    # invariant_series sums traces read off one sign per Euler-flag pair
    # instead of applying the group to each element; levels 1..8 cover
    # every level residue mod 4 on both sides of the fold
    D = 40
    for level in range(1, 9):
        for s in enumerate_strata(d, level):
            assert invariant_series(s, D) == _orbit_walk_series(s, D), s


def _break_content(monkeypatch, target, degree):
    # the table content of one stratum gains a class, so the oracle
    # and the table first disagree there
    real = actions.content_series

    def broken(s, D):
        ser = real(s, D)
        if s != target:
            return ser
        c = list(ser.c)
        c[degree] += 1
        return Series(c, D)

    monkeypatch.setattr(actions, "content_series", broken)


def test_crosscheck_names_the_failing_stratum(monkeypatch):
    _break_content(monkeypatch, Stratum(2, 1, 3), 10)
    rep = oracle_crosscheck(4, 2, 20)
    assert not rep.ok
    assert rep.entries == [("A_2(0,4)", True, ""),
                           ("A_2(1,3)", False, "first mismatch at degree 10"),
                           ("A_2(2,2)", True, "")]
    assert rep.lines()[1] == "FAIL A_2(1,3) (first mismatch at degree 10)"


def test_failing_crosscheck_fails_oracle_and_verify(monkeypatch, capsys):
    _break_content(monkeypatch, Stratum(2, 1, 3), 10)
    assert main(["oracle", "--dim", "4", "--level", "2", "--max-degree", "20",
                 "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)["report"]
    assert rows[1] == {"stratum": "A_2(1,3)", "ok": False,
                       "first_mismatch": "first mismatch at degree 10"}
    assert rows[0]["first_mismatch"] is None
    assert main(["verify", "--dim", "4", "--max-degree", "20",
                 "--format", "json"]) == 1
    rows = {r["check"]: r for r in json.loads(capsys.readouterr().out)["report"]}
    assert rows["oracle level 2"] == {
        "check": "oracle level 2", "ok": False,
        "detail": "A_2(1,3) first mismatch at degree 10"}
    assert [name for name, r in rows.items() if not r["ok"]] == ["oracle level 2"]


def test_a_trace_sum_off_a_multiple_of_the_group_order_raises_under_O():
    # three elements whose traces sum to -1 on the unit of A_1(0,5): the
    # mean over the group is not whole, and the guard must say where
    import artifact
    code = (
        "from artifact import actions\n"
        "from artifact.actions import ActionGen, IDENTITY, invariant_series\n"
        "from artifact.strata import Stratum\n"
        "flip = ActionGen(False, -1, 1, 1, 1, 1)\n"
        "actions.group_closure = lambda gens: [IDENTITY, flip, flip]\n"
        "try:\n"
        "    invariant_series(Stratum(1, 0, 5), 20)\n"
        "except ArithmeticError as e:\n"
        "    print(e)\n"
        "else:\n"
        "    raise SystemExit('ArithmeticError not raised')\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(artifact.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "trace sum -1 of A_1(0,5) in degree 5 is not a multiple of |G| = 3"]
