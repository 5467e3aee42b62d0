"""Acceptance criteria 1-11.

Each test prints exactly one line "ACCEPTANCE <n>: PASS - <summary>" on
success (visible with pytest -s or in captured output on failure).
"""

import os
import subprocess
import sys
import time

from artifact.arith import is_prime, legendre
from artifact.corpus import corpus, resolve
from artifact.fq import Fq
from artifact.fqcurves import (
    ANTI_SYMPLECTIC_ONLY,
    BOTH,
    CurveOverFq,
    count_points,
    frob_disc,
    frobenius_module,
    multiplicative_lift_possible,
    residual_module_search,
    trace_of_frobenius,
)
from artifact.globalreport import (
    analyze,
    frey_mazur_classify,
    hasse_cm,
    semistable_survey,
)
from artifact.localsolver import (
    EMPTY,
    NON_EMPTY,
    UNDETERMINED,
    FinitePrime,
    genus,
    solve_local,
)
from artifact.semistability import defect
from artifact.weierstrass import (
    ReductionKind,
    WeierstrassModel,
    conductor_exponent,
    minimal_model_at,
    reduction_kind,
)
from oracles import mat_order

W = WeierstrassModel


def _report(n, summary):
    print(f"ACCEPTANCE {n}: PASS - {summary}")


def test_criterion_1_residual_empty_end_to_end():
    t0 = time.time()
    C = CurveOverFq(Fq(3, 1), 0, 1, 0, 0, 2)
    a = trace_of_frobenius(C)
    assert a == 1
    assert a * a - 4 * 3 == -11
    M = frobenius_module(C, 11)
    assert mat_order(M.matrix, 11) == 110
    assert not multiplicative_lift_possible(a, 3, 11)
    assert all(v not in (ANTI_SYMPLECTIC_ONLY, BOTH)
               for _, v in residual_module_search(C, 11))
    v = solve_local(W(0, 1, 0, 0, 2), 11, FinitePrime(3))
    assert v.status == EMPTY and v.rule == "Search-empty"
    elapsed = time.time() - t0
    assert elapsed < 5
    _report(1, f"residual search gives Empty at (p=11, ell=3) "
               f"in {elapsed:.2f}s")


def test_criterion_2_residual_antisymplectic_end_to_end():
    t0 = time.time()
    C = CurveOverFq(Fq(11, 1), 0, 0, 0, 1, 9)
    M = frobenius_module(C, 7)
    assert mat_order(M.matrix, 7) == 21
    hits = [(c, verdict) for c, verdict in residual_module_search(C, 7)
            if verdict in (ANTI_SYMPLECTIC_ONLY, BOTH)]
    assert any(tuple(c.ai_ints) == (0, 0, 0, 1, 7)
               and verdict == ANTI_SYMPLECTIC_ONLY for c, verdict in hits)
    v = solve_local(W(0, 0, 0, 1, 9), 7, FinitePrime(11))
    assert v.status == NON_EMPTY and v.rule == "Search-antisymplectic"
    elapsed = time.time() - t0
    assert elapsed < 5
    _report(2, f"anti-symplectic partner found at (p=7, ell=11) "
               f"in {elapsed:.2f}s")


def test_criterion_3_good_primes_all_nonempty():
    t0 = time.time()
    m = W(0, 0, 0, 1, 9)
    assert abs(m.discriminant()) == 2 ** 4 * 7 * 313
    hensel_count = small_count = 0
    for ell in range(2, 200):
        if not is_prime(ell) or ell in (2, 7, 313):
            continue
        v = solve_local(m, 7, FinitePrime(ell))
        assert v.status == NON_EMPTY, (ell, v)
        if ell > 36:
            assert v.rule == "Hensel"
            hensel_count += 1
        else:
            small_count += 1
    assert hensel_count > 0 and small_count > 0
    elapsed = time.time() - t0
    assert elapsed < 30
    _report(3, f"all good primes NonEmpty for p=7 "
               f"({small_count} small, {hensel_count} Hensel) "
               f"in {elapsed:.2f}s")


def test_criterion_4_count_fixtures():
    C4 = CurveOverFq(Fq(2, 2), 0, 0, 1, 0, 0)
    assert count_points(C4) == 9
    assert trace_of_frobenius(C4) == -4
    assert frob_disc(-4, 2, 2) == 0
    C9 = CurveOverFq(Fq(3, 2), 0, 0, 0, 2, 0)
    assert count_points(C9) == 16
    assert trace_of_frobenius(C9) == -6
    assert frob_disc(-6, 3, 2) == 0
    _report(4, "point counts over F_4 and F_9 match (9 and 16)")


def test_criterion_5_genus():
    g = genus(7)
    assert (g.g, g.hensel_bound) == (3, 36)
    assert genus(11).g == 26
    assert genus(5).g == 0
    _report(5, "genus 3/26/0 for p = 7/11/5 with bound 36")


# expected (ell, e, v_ell(N)) plus optional congruence checks per label
_CORPUS_EXPECT = {
    "96a1": (2, 8, 5), "2592f1": (2, 8, 5), "288a1": (2, 8, 5),
    "288e2": (2, 8, 5), "256b2": (2, 8, 8), "2304a2": (2, 8, 8),
    "648b1": (2, 24, 3), "6696q1": (2, 24, 3), "3456a1": (2, 24, 7),
    "289152l1": (2, 24, 7), "6912j1": (2, 4, 8), "6912l1": (2, 4, 8),
    "25920z1": (3, 3, 4), "25920v1": (3, 3, 4),
    "1728v1": (3, 12, 3), "27a1": (3, 12, 3), "12096dd1": (3, 12, 3),
    "54a1": (3, 12, 3), "972b1": (3, 12, 5), "388800oh1": (3, 12, 5),
    "15552c2": (3, 12, 5), "243b1": (3, 12, 5), "243a1": (3, 12, 5),
    "15552bp2": (3, 12, 5),
}


def test_criterion_6_corpus_tables():
    table = corpus()
    for label, (ell, e, vn) in _CORPUS_EXPECT.items():
        m = minimal_model_at(W(*table[label]), ell)
        assert reduction_kind(m, ell) == ReductionKind.ADDITIVE_POT_GOOD
        prof = defect(m, ell)
        assert prof.e == e, (label, prof.e, e)
        assert conductor_exponent(m, ell) == vn, label
    t = defect(minimal_model_at(resolve("6912j1"), 2), 2).tilde
    assert t.c6_tilde % 4 == 1 and t.c4_tilde % 8 == (5 * t.delta_tilde) % 8
    t = defect(minimal_model_at(resolve("6912l1"), 2), 2).tilde
    assert t.c6_tilde % 4 == 3 and t.c4_tilde % 8 == (5 * t.delta_tilde) % 8
    t = defect(minimal_model_at(resolve("25920z1"), 3), 3).tilde
    assert t.c6_tilde % 3 == 1 and t.delta_tilde % 3 == 2
    t = defect(minimal_model_at(resolve("25920v1"), 3), 3).tilde
    assert t.c6_tilde % 3 == 2 and t.delta_tilde % 3 == 2
    _report(6, f"{len(_CORPUS_EXPECT)} corpus entries reproduce "
               "(ell, e), conductor power and unit-part congruences")


def test_criterion_7_hasse_classification():
    assert hasse_cm(resolve("121b1"), 37) == "Unconditional"
    assert hasse_cm(resolve("121b1"), 13) == UNDETERMINED
    for p in (11, 13, 37, 101, 199):
        assert hasse_cm(resolve("27a1"), p) == "NotACounterexample"
    r = analyze(resolve("121b1"), 37)
    assert r.overall.kind == "HasseCounterexample"
    assert r.overall.detail["assumption"] == "None"
    _report(7, "121b1 classifications at p=37/13 and 27a1 exclusion exact")


def test_criterion_8_biconditional_grids():
    t0 = time.time()
    e12 = resolve("27a1")
    e24 = resolve("648b1")
    n12 = n24 = 0
    for p in range(7, 201):
        if not is_prime(p):
            continue
        v = solve_local(e12, p, FinitePrime(3))
        want = NON_EMPTY if legendre(3, p) == -1 else EMPTY
        assert v.status == want, (p, 3, v)
        n12 += 1
        v = solve_local(e24, p, FinitePrime(2))
        want = NON_EMPTY if legendre(2, p) == -1 else EMPTY
        assert v.status == want, (p, 2, v)
        n24 += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(8, f"(3/p) and (2/p) biconditionals exact on {n12}+{n24} "
               f"primes in {elapsed:.2f}s")


def test_criterion_9_property_suites():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest",
         os.path.join(os.path.dirname(__file__), "test_properties.py"),
         "-q", "--no-header", "-p", "no:cacheprovider"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    _report(9, "randomized property suites all green "
               f"({proc.stdout.strip().splitlines()[-1]})")


def test_criterion_10_frey_mazur():
    assert frey_mazur_classify(resolve("37a1"), 29) == "Conditional(FreyMazur)"
    assert frey_mazur_classify(resolve("11a1"), 29) == "Conditional(FreyMazur)"
    r = analyze(resolve("37a1"), 29, assume_frey_mazur=True)
    assert r.overall.kind == "HasseCounterexample"
    assert r.overall.detail["assumption"] == "FreyMazur"
    r = analyze(resolve("11a1"), 29, assume_frey_mazur=True)
    assert r.overall.kind == "HasseCounterexample"
    r = analyze(resolve("11a1"), 13)
    assert r.overall.kind == "HasRationalPoint"
    assert r.overall.detail["q"] == 5
    _report(10, "conditional counterexamples at p=29 and the q=5 "
                "rational point at p=13 exact")


# frozen regression constants from the one-time exhaustive H=3 run
_H3_TOTAL = 2853742
_H3_SEMISTABLE = 1736115


def test_criterion_11_survey_regression():
    t1, s1, f1 = semistable_survey(1)
    assert (t1, s1) == (99, 67) and 0 < f1 < 1
    t2, s2, f2 = semistable_survey(2)
    assert t2 > t1 and s2 > s1 and 0 < f2 < 1
    if os.environ.get("ARTIFACT_FULL_SURVEY") == "1":
        t3, s3, f3 = semistable_survey(3)
        assert (t3, s3) == (_H3_TOTAL, _H3_SEMISTABLE)
    frozen = _H3_SEMISTABLE / _H3_TOTAL
    assert 0.4 <= frozen <= 0.8
    _report(11, "survey exhaustive at H<=2; H=3 regression constant "
                f"{_H3_SEMISTABLE}/{_H3_TOTAL} = {frozen:.4f} in [0.4, 0.8] "
                "(asymptotic density claims are out of desk-scale reach; "
                "set ARTIFACT_FULL_SURVEY=1 to re-run H=3 exhaustively)")
